"""Spectrum solver: regression values, symmetries, and independent oracles."""

import itertools
import math
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from fluxt1.hamiltonian import (
    FluxBias,
    FluxoniumParams,
    diagonalize,
    flux_dispersion,
)
from fluxt1.loss import Mechanism
from fluxt1.pipeline import CachedSpectrumProvider

from conftest import environment_of, params_of, resonator_of
from reference import two_level_total_rate


def f01(spec):
    return spec.energies[1] - spec.energies[0]


@lru_cache(maxsize=1)
def _ladder_phase_basis(dim):
    ladder = np.sqrt(np.arange(1.0, dim))
    a = np.diag(ladder, 1)
    lam, u = np.linalg.eigh(a + a.T)
    return a.T - a, lam, u


def lc_basis_reference(params, phi_ext, n_levels, dim=300):
    """Energies and operator elements in the oscillator basis of the LC circuit
    alone, length (2 E_C/E_L)^(1/4), built from ladder operators and one dense
    eigh: independent of the length ``diagonalize`` scales its basis to."""
    phi_zpf = (2 * params.ec / params.el) ** 0.25
    n_zpf = 0.5 / phi_zpf
    theta = 2 * math.pi * phi_ext
    d, lam, u = _ladder_phase_basis(dim)
    x = phi_zpf * lam

    def function_of_phi(values):
        return (u * values) @ u.T

    h = -4 * params.ec * n_zpf**2 * (d @ d) + function_of_phi(
        -params.ej * np.cos(x + theta) + 0.5 * params.el * x**2)
    energies, vecs = np.linalg.eigh(h)
    v = vecs[:, :n_levels]
    elements = {
        "n_elem": n_zpf * (v.T @ d @ v),
        "phi_elem": v.T @ function_of_phi(x) @ v + theta * np.eye(n_levels),
        "sin_half_elem": v.T @ function_of_phi(np.sin(0.5 * (x + theta))) @ v,
    }
    return energies[:n_levels], elements


class TestDiagonalize:
    def test_a1_frequency_at_half_flux(self):
        spec = diagonalize(params_of("A1"), FluxBias(0.5), n_levels=6)
        assert f01(spec) == pytest.approx(0.362e9, rel=0.02)

    def test_b1_frequency_at_half_flux(self, b1_half_flux_spectrum):
        assert f01(b1_half_flux_spectrum) == pytest.approx(0.427e9, rel=0.02)

    def test_flux_periodicity(self, b1_params):
        s1 = diagonalize(b1_params, FluxBias(0.3), n_levels=5)
        s2 = diagonalize(b1_params, FluxBias(1.3), n_levels=5)
        np.testing.assert_allclose(s1.energies, s2.energies, rtol=1e-10)

    def test_harmonic_limit_matches_closed_form(self):
        # E_J -> 0 leaves the bare LC ladder with spacing sqrt(8 ec el)
        ec, el = 1.0e9, 0.8e9
        params = FluxoniumParams(ej=1.0, ec=ec, el=el)
        spec = diagonalize(params, FluxBias(0.23), n_levels=6)
        spacing = np.diff(spec.energies)
        np.testing.assert_allclose(spacing, math.sqrt(8 * ec * el), rtol=1e-6)

    def test_convergence_invariant(self, b1_params):
        spec = diagonalize(b1_params, FluxBias(0.37), n_levels=6)
        bigger = diagonalize(b1_params, FluxBias(0.37), n_levels=6,
                             basis_dim=spec.basis_dim + 20)
        scale = np.max(np.abs(spec.energies))
        assert np.max(np.abs(spec.energies - bigger.energies)) / scale < 1e-9

    def test_doubled_basis_changes_nothing(self, b1_params):
        spec = diagonalize(b1_params, FluxBias(0.11), n_levels=6)
        doubled = diagonalize(b1_params, FluxBias(0.11), n_levels=6,
                              basis_dim=2 * spec.basis_dim)
        scale = np.max(np.abs(spec.energies))
        assert np.max(np.abs(spec.energies - doubled.energies)) / scale < 1e-9

    def test_matrix_element_magnitude_symmetry(self, b1_half_flux_spectrum):
        spec = b1_half_flux_spectrum
        for elem in (spec.n_elem, spec.sin_half_elem, spec.phi_elem):
            np.testing.assert_allclose(np.abs(elem), np.abs(elem.T), atol=1e-12)

    def test_parity_selection_at_half_flux(self, b1_half_flux_spectrum):
        spec = b1_half_flux_spectrum
        # even potential: diagonal charge elements vanish, 0-2 charge forbidden
        assert abs(spec.n_elem[0, 0]) < 1e-10
        assert abs(spec.n_elem[1, 1]) < 1e-10
        assert abs(spec.n_elem[0, 2]) < 1e-10
        assert abs(spec.phi_elem[0, 1]) > 1.0  # extremal phase element

    @pytest.mark.parametrize("qubit", ["A1", "A2", "A3", "A4", "A5", "B1", "B2", "B3"])
    def test_sin_half_parity_rule_at_half_flux(self, qubit):
        # sin(phi/2) is even at half flux: its 0-1 element is exactly zero, so
        # the junction quasiparticle channel cannot relax the qubit there
        params = params_of(qubit)
        spec = diagonalize(params, FluxBias(0.5), n_levels=6)
        assert spec.sin_half_elem[0, 1] == 0.0
        assert abs(spec.sin_half_elem[0, 2]) > 0.3  # same parity: allowed
        env = environment_of(qubit, x_qp=1e-9)
        two = diagonalize(params, FluxBias(0.5), n_levels=2)
        assert two_level_total_rate(two, resonator_of(qubit), env,
                                    (Mechanism.QP_JUNCTION,)) == 0.0
        # the rule holds at half-odd flux only
        assert diagonalize(params, FluxBias(0.49), n_levels=6).sin_half_elem[0, 1] != 0.0

    def test_sin_half_matrix_function_reconstruction(self, b1_params):
        # independent in-basis route: phi in the LC oscillator basis from
        # ladder operators, the half-angle sine applied to its eigenvalues,
        # projected onto eigenstates of an explicit dense Hamiltonian
        spec = diagonalize(b1_params, FluxBias(0.31), n_levels=4)
        _, elements = lc_basis_reference(b1_params, 0.31, 4)
        np.testing.assert_allclose(np.abs(spec.sin_half_elem),
                                   np.abs(elements["sin_half_elem"]), atol=1e-9)

    def test_sin_half_real_space_grid_oracle(self, b1_params):
        # coarser but fully independent discretization of the same operator
        spec = diagonalize(b1_params, FluxBias(0.31), n_levels=4)
        ej, ec, el = b1_params.ej, b1_params.ec, b1_params.el
        theta = 2 * math.pi * 0.31
        n_pts, span = 6001, 25.0
        phi = np.linspace(-span, span, n_pts)
        d = phi[1] - phi[0]
        main = 8 * ec / d**2 - ej * np.cos(phi + theta) + 0.5 * el * phi**2
        off = -4 * ec / d**2 * np.ones(n_pts - 1)
        _, vecs = eigh_tridiagonal(main, off, select="i", select_range=(0, 3))
        vecs /= math.sqrt(d)
        op = np.sin(0.5 * (phi + theta))
        for i in range(4):
            for j in range(4):
                ref = abs(np.sum(vecs[:, i] * op * vecs[:, j]) * d)
                assert abs(spec.sin_half_elem[i, j]) == pytest.approx(ref, abs=2e-5)

    @pytest.mark.parametrize("qubit", ["A1", "A2", "A3", "A4", "A5", "B1", "B2", "B3"])
    def test_matrix_elements_converge_against_large_basis(self, qubit):
        # the contract checks energies only; the operators must converge too
        params = params_of(qubit)
        for phi in (0.0, 0.25, 0.5):
            spec = diagonalize(params, FluxBias(phi), n_levels=6)
            ref = diagonalize(params, FluxBias(phi), n_levels=6, basis_dim=300)
            scale = np.max(np.abs(ref.energies))
            assert np.max(np.abs(spec.energies - ref.energies)) / scale < 1e-9
            for name in ("n_elem", "phi_elem", "sin_half_elem"):
                got = np.abs(getattr(spec, name)) ** 2
                want = np.abs(getattr(ref, name)) ** 2
                kept = want > 1e-6 * want.max()
                np.testing.assert_allclose(got[kept], want[kept], rtol=1e-8,
                                           err_msg=f"{qubit} {name} at phi={phi}")

    def test_convergence_failure_carries_last_delta(self, b1_params, monkeypatch):
        import fluxt1.hamiltonian as hamiltonian
        from fluxt1.errors import ConvergenceError

        monkeypatch.setattr(hamiltonian, "MAX_BASIS_DIM", 160)
        with pytest.raises(ConvergenceError) as err:
            diagonalize(b1_params, FluxBias(0.4), n_levels=6, convergence_rtol=1e-30)
        last_delta = re.search(r"last relative change (\S+) >= ", str(err.value))
        assert last_delta is not None
        assert float(last_delta.group(1)) > 0.0

    def test_rejects_bad_levels(self, b1_params):
        with pytest.raises(ValueError):
            diagonalize(b1_params, FluxBias(0.5), n_levels=1)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            FluxoniumParams(ej=-1.0, ec=1e9, el=1e9)

    def test_spectrum_arrays_immutable(self, b1_half_flux_spectrum):
        with pytest.raises(ValueError):
            b1_half_flux_spectrum.energies[0] = 0.0

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_spectrum_bits_do_not_depend_on_blas_threads(self, threads):
        # a threaded product rounds its split tiles differently; at dim 100
        # that moved A5's matrix elements by up to 6e-15 relative. A5 at 0.3
        # converges from the default start at 80, so both solves start at 80
        # to end at 100, a size where the threads split the products
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = ("import sys\n"
                "from fluxt1.hamiltonian import FluxBias, FluxoniumParams, diagonalize\n"
                "s = diagonalize(FluxoniumParams(ej=7.11e9, ec=0.95e9, el=0.53e9), FluxBias(0.3),"
                " basis_dim=80)\n"
                "sys.stdout.write(repr((s.basis_dim, s.energies.tobytes(), s.n_elem.tobytes(), "
                "s.phi_elem.tobytes(), s.sin_half_elem.tobytes())))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        spec = diagonalize(params_of("A5"), FluxBias(0.3), basis_dim=80)
        assert spec.basis_dim == 100
        assert proc.stdout == repr((spec.basis_dim, spec.energies.tobytes(),
                                    spec.n_elem.tobytes(), spec.phi_elem.tobytes(),
                                    spec.sin_half_elem.tobytes()))

    def test_concurrent_solves_keep_bits_and_restore_blas_threads(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from fluxt1 import hamiltonian

        controls = hamiltonian._openblas_thread_controls()
        before = [get() for get, _ in controls]
        params = params_of("A5")
        phis = [0.1 + 0.01 * k for k in range(24)]

        def solve(phi):
            return diagonalize(params, FluxBias(phi)).n_elem.tobytes()

        serial = [solve(phi) for phi in phis]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                threaded = list(pool.map(solve, phis, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        assert [get() for get, _ in controls] == before


# E_L, E_J, E_C in GHz: light to heavy inductances, shallow to deep wells
CONVERGENCE_GRID = list(itertools.product((0.1, 0.53, 1.0), (0.5, 4.0, 12.0), (0.5, 2.0)))
GRID_FLUXES = (0.0, 0.2, 0.35, 0.5)
# retained levels closer than this fraction of the spectrum scale form one
# near-degenerate cluster
DEGENERATE_GAP = 1e-5
# the grid points with such clusters, all in deep double wells; their
# smallest gaps over the scale are 2e-14 and 1e-13 on (0.1, 12, 0.5) at flux 0
# and 0.5, 7e-7 and 5e-6 on (0.1, 12, 2), and 1e-7 on (0.53, 12, 0.5) at 0.
# Inside a cluster the eigenvectors, and so single elements, are set by
# rounding (at the 1e-13 gap, up to 17% apart between ``diagonalize`` and
# ``lc_basis_reference``), so there |elements|^2 are compared summed over
# each cluster, which any rotation inside it leaves unchanged
NEAR_DEGENERATE = {
    (0.1, 12.0, 0.5, 0.0),
    (0.1, 12.0, 0.5, 0.5),
    (0.1, 12.0, 2.0, 0.0),
    (0.1, 12.0, 2.0, 0.5),
    (0.53, 12.0, 0.5, 0.0),
}


class TestBasisConvergence:
    @pytest.mark.parametrize("el, ej, ec", CONVERGENCE_GRID)
    def test_grid_converges_against_lc_basis_reference(self, el, ej, ec):
        params = FluxoniumParams(ej=ej * 1e9, ec=ec * 1e9, el=el * 1e9)
        for phi in GRID_FLUXES:
            spec = diagonalize(params, FluxBias(phi), n_levels=6)
            energies, elements = lc_basis_reference(params, phi, 6)
            scale = np.max(np.abs(energies))
            assert np.max(np.abs(spec.energies - energies)) / scale < 1e-9
            gaps = np.diff(energies) / scale
            point = (el, ej, ec, phi)
            assert (gaps.min() < DEGENERATE_GAP) == (point in NEAR_DEGENERATE), point
            cluster = np.concatenate([[0], np.cumsum(gaps >= DEGENERATE_GAP)])
            member = np.zeros((cluster[-1] + 1, 6))
            member[cluster, np.arange(6)] = 1.0
            for name, ref in elements.items():
                got = member @ np.abs(getattr(spec, name)) ** 2 @ member.T
                want = member @ np.abs(ref) ** 2 @ member.T
                kept = want > 1e-6 * want.max()
                np.testing.assert_allclose(got[kept], want[kept], rtol=1e-8,
                                           err_msg=f"{name} at {point}")

    @pytest.mark.parametrize("qubit", ["A1", "A2", "A3", "A4", "A5", "B1", "B2", "B3"])
    def test_shipped_devices_converge_at_60_or_80(self, qubit):
        # the basis length fits the wells, so one growth step past the
        # default start suffices everywhere but on A5, the deepest wells,
        # which needs two at Phi = 0.19 and 0.26-0.31
        params = params_of(qubit)
        dims = {diagonalize(params, FluxBias(phi), n_levels=levels).basis_dim
                for phi in np.linspace(0.0, 0.5, 51) for levels in (2, 6)}
        assert max(dims) <= 80
        if qubit != "A5":
            assert dims == {60}


class TestTransitionFrequency:
    def test_zero_on_diagonal(self, b1_half_flux_spectrum):
        assert b1_half_flux_spectrum.transition_frequency(0, 0) == 0.0

    def test_antisymmetric(self, b1_half_flux_spectrum):
        up = b1_half_flux_spectrum.transition_frequency(0, 1)
        down = b1_half_flux_spectrum.transition_frequency(1, 0)
        assert up == -down
        assert up > 0

    def test_a5_small_splitting(self):
        spec = diagonalize(params_of("A5"), FluxBias(0.5), n_levels=2)
        assert spec.transition_frequency(0, 1) == pytest.approx(0.042e9, rel=0.05)

    def test_out_of_range(self, b1_half_flux_spectrum):
        with pytest.raises(IndexError):
            b1_half_flux_spectrum.transition_frequency(0, 6)


class TestFluxDispersion:
    def test_zero_at_sweet_spot(self, b1_params):
        assert abs(flux_dispersion(b1_params, FluxBias(0.5))) < 1e-6 * 2e10

    def test_zero_at_integer_flux(self, b1_params):
        assert abs(flux_dispersion(b1_params, FluxBias(0.0))) < 1e-6 * 2e10

    def test_matches_central_difference(self, b1_params):
        phi, h = 0.45, 1e-4

        def w01(x):
            s = diagonalize(b1_params, FluxBias(x), n_levels=2)
            return 2 * math.pi * (s.energies[1] - s.energies[0])

        fd = (w01(phi + h) - w01(phi - h)) / (2 * h)
        hf = flux_dispersion(b1_params, FluxBias(phi))
        assert hf == pytest.approx(fd, rel=1e-6)


class TestSpectrumVsFlux:
    # a flux sweep is one diagonalization per bias, as CachedSpectrumProvider
    # serves the pipeline

    def test_single_point_equals_diagonalize(self, b1_params):
        direct = diagonalize(b1_params, FluxBias(0.27), n_levels=4)
        via_sweep = CachedSpectrumProvider(b1_params, n_levels=4)(0.27)
        np.testing.assert_allclose(via_sweep.energies, direct.energies, rtol=1e-12)

    def test_mirror_symmetry_about_half_flux(self, b1_params):
        sweep = CachedSpectrumProvider(b1_params, n_levels=4)
        specs = [sweep(0.5 - d) for d in (0.1, 0.2)] + [sweep(0.5 + d) for d in (0.1, 0.2)]
        np.testing.assert_allclose(specs[0].energies, specs[2].energies, rtol=1e-10)
        np.testing.assert_allclose(specs[1].energies, specs[3].energies, rtol=1e-10)

    def test_monotone_descent_toward_sweet_spot(self, b1_params):
        sweep = CachedSpectrumProvider(b1_params, n_levels=2)
        freqs = [f01(sweep(x)) for x in np.linspace(0.0, 0.5, 11)]
        assert all(a > b for a, b in zip(freqs, freqs[1:]))
        assert freqs[-1] == pytest.approx(0.427e9, rel=0.02)


# moderate example counts: every draw costs a full diagonalization
@settings(max_examples=12, deadline=None)
@given(
    ej=st.floats(0.5, 8.0),
    ec=st.floats(0.5, 1.5),
    el=st.floats(0.2, 1.0),
    phi=st.floats(-1.0, 1.0),
)
def test_periodicity_and_reflection_properties(ej, ec, el, phi):
    params = FluxoniumParams(ej * 1e9, ec * 1e9, el * 1e9)
    base = diagonalize(params, FluxBias(phi), n_levels=4)
    scale = np.max(np.abs(base.energies))
    shifted = diagonalize(params, FluxBias(phi + 1.0), n_levels=4)
    mirrored = diagonalize(params, FluxBias(-phi), n_levels=4)
    assert np.max(np.abs(base.energies - shifted.energies)) / scale < 1e-9
    assert np.max(np.abs(base.energies - mirrored.energies)) / scale < 1e-9


@settings(max_examples=8, deadline=None)
@given(phi=st.floats(0.02, 0.48).filter(lambda x: abs(x - 0.25) > 1e-3))
def test_dispersion_consistency_property(phi):
    params = params_of("B2")
    h = 1e-4

    def w01(x):
        s = diagonalize(params, FluxBias(x), n_levels=2)
        return 2 * math.pi * (s.energies[1] - s.energies[0])

    fd = (w01(phi + h) - w01(phi - h)) / (2 * h)
    hf = flux_dispersion(params, FluxBias(phi))
    assert hf == pytest.approx(fd, rel=1e-5, abs=1e4)

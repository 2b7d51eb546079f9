"""Spectrum solver: regression values, symmetries, and independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from fluxt1.dynamics import two_level_total_rate
from fluxt1.hamiltonian import (
    FluxBias,
    FluxoniumParams,
    diagonalize,
    flux_dispersion,
)
from fluxt1.loss import Mechanism
from fluxt1.pipeline import CachedSpectrumProvider

from conftest import environment_of, params_of, resonator_of


def f01(spec):
    return spec.energies[1] - spec.energies[0]


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
        # independent in-basis route: build phi in the oscillator basis from
        # ladder operators, eigendecompose it here, apply the half-angle sine,
        # and project onto eigenstates recomputed from an explicit Hamiltonian
        spec = diagonalize(b1_params, FluxBias(0.31), n_levels=4)
        dim = spec.basis_dim
        theta = 2 * math.pi * 0.31
        phi_zpf = (2 * b1_params.ec / b1_params.el) ** 0.25
        n_zpf = 0.5 / phi_zpf
        ladder = np.sqrt(np.arange(1.0, dim))
        a = np.diag(ladder, 1)
        phi_op = phi_zpf * (a + a.T)
        lam, u = np.linalg.eigh(phi_op)
        sin_half = (u * np.sin(0.5 * (lam + theta))) @ u.T
        cos_op = (u * np.cos(lam + theta)) @ u.T
        n_sq = -(n_zpf**2) * np.linalg.matrix_power(a.T - a, 2)
        h_op = 4 * b1_params.ec * n_sq - b1_params.ej * cos_op \
            + 0.5 * b1_params.el * phi_op @ phi_op
        _, vecs = np.linalg.eigh(h_op)
        v = vecs[:, :4]
        ref = np.abs(v.T @ sin_half @ v)
        np.testing.assert_allclose(np.abs(spec.sin_half_elem), ref, atol=1e-9)

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
        assert err.value.last_delta is not None
        assert err.value.last_delta > 0.0

    def test_rejects_bad_levels(self, b1_params):
        with pytest.raises(ValueError):
            diagonalize(b1_params, FluxBias(0.5), n_levels=1)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(ValueError):
            FluxoniumParams(ej=-1.0, ec=1e9, el=1e9)

    def test_spectrum_arrays_immutable(self, b1_half_flux_spectrum):
        with pytest.raises(ValueError):
            b1_half_flux_spectrum.energies[0] = 0.0


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

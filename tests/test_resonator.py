"""Dispersive shifts, S21 line shape, IQ rotation, coupling capacitance."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxt1.constants import E_CHARGE, HBAR
from fluxt1.errors import ResonanceCollisionError
from fluxt1.hamiltonian import FluxBias, diagonalize
from fluxt1.resonator import (
    GUARD_BAND,
    ResonatorParams,
    coupling_capacitance,
    dispersive_shift,
    dressed_response,
    rotate_for_contrast,
    s21,
)

from conftest import params_of, resonator_of


class TestDispersiveShift:
    def test_zero_coupling(self, b1_half_flux_spectrum):
        res = ResonatorParams(omega_res=7.039e9, g=0.0, kappa=0.29e6)
        for state in range(3):
            assert dispersive_shift(b1_half_flux_spectrum, res, state) == 0.0

    def test_a1_relative_shift(self):
        spec = diagonalize(params_of("A1"), FluxBias(0.5), n_levels=10)
        res = resonator_of("A1")
        chi01 = dispersive_shift(spec, res, 1) - dispersive_shift(spec, res, 0)
        assert chi01 == pytest.approx(1.44e6, rel=0.10)

    def test_two_level_truncation_matches_hand_sum(self, b1_params, b1_resonator):
        spec = diagonalize(b1_params, FluxBias(0.5), n_levels=2)
        w01 = spec.energies[1] - spec.energies[0]
        g = b1_resonator.g
        elem2 = abs(spec.n_elem[0, 1]) ** 2
        f_res = b1_resonator.omega_res
        chi0_hand = 2 * g**2 * elem2 * w01 / (w01**2 - f_res**2)
        chi1_hand = 2 * g**2 * elem2 * (-w01) / (w01**2 - f_res**2)
        assert dispersive_shift(spec, b1_resonator, 0) == pytest.approx(chi0_hand, rel=1e-12)
        assert dispersive_shift(spec, b1_resonator, 1) == pytest.approx(chi1_hand, rel=1e-12)

    def test_resonance_collision_raises(self, b1_half_flux_spectrum):
        spec = b1_half_flux_spectrum
        w03 = spec.energies[3] - spec.energies[0]
        res = ResonatorParams(omega_res=float(w03), g=100e6, kappa=0.3e6)
        with pytest.raises(ResonanceCollisionError, match=r"transition \(0, 3\) "):
            dispersive_shift(spec, res, 0)

    @pytest.mark.parametrize("offset, collides", [(0.5, True), (2.0, False)])
    def test_guard_band_sets_the_collision_edge(self, b1_half_flux_spectrum, offset,
                                                collides):
        spec = b1_half_flux_spectrum
        w03 = float(spec.energies[3] - spec.energies[0])
        res = ResonatorParams(omega_res=w03 + offset * GUARD_BAND, g=100e6, kappa=0.3e6)
        if collides:
            with pytest.raises(ResonanceCollisionError):
                dispersive_shift(spec, res, 0)
        else:
            assert math.isfinite(dispersive_shift(spec, res, 0))

    def test_sign_change_across_flux(self, b1_params, b1_resonator):
        # a transition crossing the resonator flips the relative shift sign
        chis = []
        for phi in np.linspace(0.0, 0.5, 26):
            spec = diagonalize(b1_params, FluxBias(phi), n_levels=6)
            chis.append(dispersive_shift(spec, b1_resonator, 1)
                        - dispersive_shift(spec, b1_resonator, 0))
        chis = np.array(chis)
        assert (chis > 0).any() and (chis < 0).any()


class TestS21:
    def test_zero_on_dressed_resonance(self, b1_resonator):
        chi = -1.1e6
        probe = b1_resonator.omega_res + chi
        assert s21(b1_resonator, chi, probe) == pytest.approx(0.0, abs=1e-15)

    def test_far_detuned_magnitude_one(self, b1_resonator):
        probe = b1_resonator.omega_res + 1e4 * b1_resonator.kappa
        assert abs(s21(b1_resonator, 0.0, probe)) == pytest.approx(1.0, abs=1e-3)

    def test_b1_off_state_value_against_direct_formula(self):
        res = resonator_of("B1")
        chi0, chi01 = -0.3e6, 1.11e6
        chi1 = chi0 + chi01
        probe = res.omega_res + chi0
        q_load = res.omega_res / res.kappa
        delta = probe - (res.omega_res + chi1)
        expected = 1 - 1 / (1 + 2j * q_load * delta / (res.omega_res + chi1))
        assert s21(res, chi1, probe) == pytest.approx(expected, rel=1e-12)

    def test_magnitude_bounded(self, b1_resonator):
        for detuning in np.linspace(-50, 50, 101):
            value = abs(s21(b1_resonator, 0.0, b1_resonator.omega_res
                            + detuning * b1_resonator.kappa))
            assert 0.0 <= value <= 1.0 + 1e-12


class TestRotateForContrast:
    def test_real_points_need_no_rotation(self):
        angle, rotated = rotate_for_contrast([0.9 + 0j, 0.1 + 0j, 0.4 + 0j])
        assert angle == 0.0
        np.testing.assert_allclose(rotated, [0.9, 0.1, 0.4])

    def test_equivariance_under_global_phase(self):
        pts = np.array([0.8 + 0.1j, 0.2 - 0.3j, 0.5 + 0.5j])
        base_angle, base_rotated = rotate_for_contrast(pts)
        theta = 0.7
        angle, rotated = rotate_for_contrast(pts * cmath.exp(1j * theta))
        assert (angle - (base_angle - theta)) % math.pi == pytest.approx(0.0, abs=1e-12) \
            or (angle - (base_angle - theta)) % math.pi == pytest.approx(math.pi, abs=1e-9)
        base_contrast = abs(base_rotated[0].real - base_rotated[1].real)
        assert abs(rotated[0].real - rotated[1].real) == pytest.approx(base_contrast, rel=1e-12)

    def test_matches_brute_force_scan(self, rng):
        pts = rng.normal(size=3) + 1j * rng.normal(size=3)
        angle, rotated = rotate_for_contrast(pts)
        contrast = abs(rotated[0].real - rotated[1].real)
        scan = np.arange(0.0, math.pi, 1e-4)
        scanned = np.abs((pts[0] * np.exp(1j * scan)).real - (pts[1] * np.exp(1j * scan)).real)
        assert contrast >= scanned.max() - 1e-6

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            rotate_for_contrast([1.0 + 0j])

    @settings(max_examples=100)
    @given(st.floats(0.0, 2 * math.pi), st.integers(2, 6))
    def test_rotation_preserves_magnitudes(self, theta, n):
        pts = np.exp(1j * np.linspace(0.3, 2.0, n)) * np.linspace(0.5, 1.0, n)
        _, rotated = rotate_for_contrast(pts * cmath.exp(1j * theta))
        np.testing.assert_allclose(np.abs(rotated), np.abs(pts), rtol=1e-12)


class TestDressedResponse:
    @staticmethod
    def _probed_points(spec, res) -> np.ndarray:
        """Each state's unrotated S21 at the ground-state dressed probe."""
        chi = np.array([dispersive_shift(spec, res, i) for i in range(spec.n_levels)])
        return np.array([s21(res, c, res.omega_res + chi[0]) for c in chi])

    def test_ground_dressed_probe_nulls_the_ground_response(self, b1_half_flux_spectrum,
                                                            b1_resonator):
        # probing on the ground dressed line nulls the ground-state response
        chi0 = dispersive_shift(b1_half_flux_spectrum, b1_resonator, 0)
        assert s21(b1_resonator, chi0, b1_resonator.omega_res + chi0) == 0.0

    def test_rotation_maximizes_computational_contrast(self, b1_half_flux_spectrum,
                                                       b1_resonator):
        weights = dressed_response(b1_half_flux_spectrum, b1_resonator)
        points = self._probed_points(b1_half_flux_spectrum, b1_resonator)
        contrast = abs(weights[0] - weights[1])
        for theta in np.linspace(0, math.pi, 1000):
            trial = points * cmath.exp(1j * theta)
            assert contrast >= abs(trial[0].real - trial[1].real) - 1e-9

    def test_weights_are_the_rotated_points_real_part(self, b1_half_flux_spectrum,
                                                      b1_resonator):
        weights = dressed_response(b1_half_flux_spectrum, b1_resonator)
        points = self._probed_points(b1_half_flux_spectrum, b1_resonator)
        assert weights.tolist() == rotate_for_contrast(points)[1].real.tolist()
        assert not weights.flags.writeable


class TestCouplingCapacitance:
    def test_zero_coupling(self):
        res = ResonatorParams(omega_res=7e9, g=0.0, kappa=0.3e6)
        assert coupling_capacitance(res, 2e-14) == 0.0

    def test_linear_in_g(self):
        res1 = ResonatorParams(omega_res=7e9, g=100e6, kappa=0.3e6)
        res2 = ResonatorParams(omega_res=7e9, g=200e6, kappa=0.3e6)
        assert coupling_capacitance(res2, 2e-14) == pytest.approx(
            2 * coupling_capacitance(res1, 2e-14), rel=1e-14)

    def test_b1_against_direct_formula(self, b1_params):
        res = resonator_of("B1")
        c_sigma = b1_params.c_sigma
        g_ang = 2 * math.pi * res.g
        w_ang = 2 * math.pi * res.omega_res
        expected = (HBAR * g_ang * c_sigma / (2 * E_CHARGE * w_ang)
                    * math.sqrt(math.pi / (2 * HBAR * 50.0)))
        assert coupling_capacitance(res, c_sigma) == pytest.approx(expected, rel=1e-12)

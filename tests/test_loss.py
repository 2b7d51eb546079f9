"""Per-mechanism rates: closed-form oracles, detailed balance, limits."""

import itertools
import math
import re
import warnings
from dataclasses import fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxt1 import loss
from fluxt1.constants import E_CHARGE, H, HBAR, K_B, PHI0
from fluxt1.errors import QuasiparticleEnergyWarning, ZeroTransitionError
from fluxt1.hamiltonian import FluxBias, FluxoniumParams, Spectrum, diagonalize
from fluxt1.io import parse_device_file
from fluxt1.loss import (
    ANALYSIS_MECHANISMS,
    GAP,
    ChannelPairs,
    Environment,
    Mechanism,
    build_mechanism_table,
    purcell_mutual_inductance,
    purcell_resistance,
    q_of_frequency,
)
from fluxt1.resonator import RESONATOR_Z0, ResonatorParams, coupling_capacitance

from conftest import environment_of, params_of, resonator_of
from reference import two_level_total_rate

DEVICES = Path(__file__).resolve().parents[1] / "devices"
SHIPPED_DEVICES = ("a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3")


@lru_cache(maxsize=None)
def shipped_spectrum(name: str, phi: float) -> Spectrum:
    """The six-level spectrum of a shipped device at one bias."""
    device = parse_device_file(str(DEVICES / f"{name}.json"))
    return diagonalize(device.fluxonium_params(), FluxBias(phi), n_levels=6)


# level pairs checked against the closed forms, each in both directions
PAIRS = [(0, 1), (1, 2), (0, 3), (2, 4)]
DIRECTED = PAIRS + [(j, i) for i, j in PAIRS]


def coth(x):
    return 1.0 / math.tanh(x)


def rates(spec, env, mechanism, res=None):
    return build_mechanism_table(spec, res, env, mechanism).table(env)


def input_impedance(res, f):
    """Complex input impedance of the resonator-filtered feedline (reference)."""
    omega = 2 * math.pi * f
    m = purcell_mutual_inductance(res)
    theta = math.pi * f / (2 * res.omega_res)
    c, s = np.cos(theta), np.sin(theta)
    num = omega**2 * m**2 * c + 2j * RESONATOR_Z0**2 * s
    den = 2 * RESONATOR_Z0**2 * c + 1j * omega**2 * m**2 * s
    return RESONATOR_Z0 * num / den


def transition(spec, i, j):
    """(|f_ij| in Hz, True if i->j emits, |canonical upper slot| of each operator)."""
    lo, hi = min(i, j), max(i, j)
    f = spec.energies[hi] - spec.energies[lo]
    elems = {name: abs(getattr(spec, name)[lo, hi]) ** 2
             for name in ("n_elem", "phi_elem", "sin_half_elem")}
    return f, i > j, elems


def thermal_share(f, temp, downward):
    """Fraction of a thermal pair total that goes one way: 1/(1 + exp(-+hf/kT))."""
    boltzmann = math.exp(H * f / (K_B * temp))
    return boltzmann / (1.0 + boltzmann) if downward else 1.0 / (1.0 + boltzmann)


class TestQOfFrequency:
    def test_reference_point(self):
        env = Environment(qc_eff=3.11e5, epsilon=0.25)
        assert q_of_frequency(env, 6e9) == pytest.approx(3.11e5, rel=1e-14)

    def test_flat_when_exponent_zero(self):
        env = Environment(qc_eff=2.0e5, epsilon=0.0)
        for f in (0.1e9, 1e9, 12e9):
            assert q_of_frequency(env, f) == 2.0e5

    def test_scalar_evaluation(self):
        env = Environment(qc_eff=3.11e5, epsilon=0.25)
        expected = 3.11e5 * (6e9 / 0.427e9) ** 0.25
        assert q_of_frequency(env, 0.427e9) == pytest.approx(expected, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            q_of_frequency(Environment(), 0.0)


class TestCapacitivePairRates:
    def test_each_column_is_the_scalar_exponent_path_bit_for_bit(self):
        # -1, 0.5 and 2 are where numpy's ** with a scalar exponent rounds
        # exactly (1/x, sqrt, x*x) and a broadcast power does not
        f = np.linspace(0.05e9, 9e9, 301)
        strength = np.linspace(1e3, 5e3, 301)
        down, up = 1.0 + 1.0 / f, 1.0 / f
        grid = (-1.0, 0.5, 2.0, 0.25, 0.0, 1.0)
        rates = loss.capacitive_pair_rates(strength, f, down, up, 2.5e5, grid)
        assert rates.shape == (f.size, len(grid))
        for k, eps in enumerate(grid):
            total = strength * (1.0 / q_of_frequency(Environment(qc_eff=2.5e5, epsilon=eps), f))
            assert np.array_equal(rates[:, k], total * up + total * down)

    @pytest.mark.parametrize("name", SHIPPED_DEVICES)
    @pytest.mark.parametrize("mechanism", list(Mechanism), ids=lambda m: m.value)
    def test_pair_sum_is_the_table_entry_bit_for_bit(self, mechanism, name):
        # the model's memoized tables against freshly built ones
        from fluxt1.dynamics import BiasModel

        device = parse_device_file(str(DEVICES / f"{name}.json"))
        res = device.resonator_params()
        for phi in (0.1, 0.27, 0.5):
            spec = shipped_spectrum(name, phi)
            for eps in (-1.0, 0.25, 0.5):
                # x_qp switches the quasiparticle channels on
                env = device.environment(epsilon=eps, x_qp=1e-9)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", QuasiparticleEnergyWarning)
                    assert (BiasModel(spec, res, env).pair_rate((mechanism,))
                            == two_level_total_rate(spec, res, env, (mechanism,)))


class TestRateCapacitive:
    def test_parity_forbidden_pair_is_zero(self, b1_half_flux_spectrum, b1_environment):
        # 0->2 charge element vanishes at half flux up to eigensolver roundoff,
        # so the rate is zero on any physical scale (allowed rates are ~1e4/s)
        table = rates(b1_half_flux_spectrum, b1_environment, Mechanism.CAPACITIVE)
        assert table[0, 2] < 1e-12

    @pytest.mark.parametrize("pair", PAIRS)
    def test_zero_temperature_limit(self, b1_half_flux_spectrum, pair):
        env_cold = environment_of("B1", t_qubit=1e-6)
        spec = b1_half_flux_spectrum
        i, j = pair
        table = rates(spec, env_cold, Mechanism.CAPACITIVE)
        f, _, elems = transition(spec, i, j)
        bare = 16 * H * spec.params.ec / (HBAR * q_of_frequency(env_cold, f)) \
            * elems["n_elem"]
        assert table[i, j] == 0.0
        assert table[j, i] == pytest.approx(bare, rel=1e-12)

    @pytest.mark.parametrize("pair", DIRECTED)
    def test_b1_pair_sum_against_direct_formula(self, b1_half_flux_spectrum, pair):
        env = Environment(qc_eff=3.11e5, epsilon=0.25, t_qubit=0.040)
        spec = b1_half_flux_spectrum
        i, j = pair
        f, downward, elems = transition(spec, i, j)
        table = rates(spec, env, Mechanism.CAPACITIVE)
        expected = (16 * H * spec.params.ec / (HBAR * q_of_frequency(env, f))
                    * elems["n_elem"]
                    * coth(H * f / (2 * K_B * 0.040)))
        assert table[i, j] + table[j, i] == pytest.approx(expected, rel=1e-12)
        assert table[i, j] == pytest.approx(
            expected * thermal_share(f, 0.040, downward), rel=1e-12)

    def test_pair_sum_increases_with_temperature(self, b1_half_flux_spectrum):
        from fluxt1.dynamics import BiasModel

        spec = b1_half_flux_spectrum
        sums = []
        for t in (0.020, 0.040, 0.080, 0.160):
            env = environment_of("B1", t_qubit=t)
            sums.append(BiasModel(spec, None, env).pair_rate((Mechanism.CAPACITIVE,)))
        assert all(a < b for a, b in zip(sums, sums[1:]))


class TestRateFluxNoise:
    def test_zero_amplitude(self, b1_half_flux_spectrum):
        env = Environment(a_phi=0.0)
        assert not rates(b1_half_flux_spectrum, env, Mechanism.FLUX_NOISE).any()

    def test_symmetric_up_down(self, b1_half_flux_spectrum, b1_environment):
        table = rates(b1_half_flux_spectrum, b1_environment, Mechanism.FLUX_NOISE)
        assert table[1, 0] == table[0, 1]

    def test_linear_in_amplitude(self, b1_half_flux_spectrum):
        r1 = rates(b1_half_flux_spectrum, Environment(a_phi=1e-11), Mechanism.FLUX_NOISE)
        r2 = rates(b1_half_flux_spectrum, Environment(a_phi=2e-11), Mechanism.FLUX_NOISE)
        assert r2[0, 1] == pytest.approx(2 * r1[0, 1], rel=1e-12)

    @pytest.mark.parametrize("pair", DIRECTED)
    def test_a1_against_direct_formula(self, pair):
        spec = diagonalize(params_of("A1"), FluxBias(0.48), n_levels=6)
        sqrt_a = 10.4e-6
        env = Environment(a_phi=sqrt_a**2)
        i, j = pair
        f, _, elems = transition(spec, i, j)
        omega = 2 * math.pi * f
        el_joule = H * spec.params.el
        expected = (4 * math.pi * (2 * math.pi * el_joule / (HBAR * PHI0)) ** 2
                    * elems["phi_elem"]
                    * (sqrt_a**2 * PHI0**2) / omega)
        assert rates(spec, env, Mechanism.FLUX_NOISE)[i, j] == pytest.approx(
            expected, rel=1e-9)


class TestRateQuasiparticle:
    def test_zero_density(self, b1_half_flux_spectrum):
        env = Environment(x_qp=0.0)
        assert not rates(b1_half_flux_spectrum, env, Mechanism.QP_JUNCTION).any()

    @pytest.mark.parametrize("pair", DIRECTED)
    def test_junction_against_direct_formula(self, b1_params, pair):
        spec = diagonalize(b1_params, FluxBias(0.37), n_levels=6)
        env = Environment(x_qp=1e-9)
        i, j = pair
        f, downward, elems = transition(spec, i, j)
        expected = (16 * H * spec.params.ej * 1e-9 / (math.pi * HBAR)
                    * math.sqrt(2 * GAP / f)
                    * elems["sin_half_elem"])
        if not downward:
            expected *= math.exp(-H * f / (K_B * env.t_qubit))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuasiparticleEnergyWarning)
            table = rates(spec, env, Mechanism.QP_JUNCTION)
        assert table[i, j] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("mechanism", [Mechanism.QP_JUNCTION, Mechanism.QP_ARRAY])
    def test_gap_is_read_at_call_time(self, b1_params, mechanism, monkeypatch):
        # the spectral density goes as sqrt(GAP): a fourfold gap doubles every rate
        spec = diagonalize(b1_params, FluxBias(0.37), n_levels=6)
        env = Environment(x_qp=1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuasiparticleEnergyWarning)
            base = rates(spec, env, mechanism)
            monkeypatch.setattr(loss, "GAP", 4 * GAP)
            scaled = rates(spec, env, mechanism)
        assert base.any()
        np.testing.assert_allclose(scaled, 2 * base, rtol=1e-12)

    @pytest.mark.parametrize("pair", DIRECTED)
    def test_array_against_printed_closed_form(self, b1_half_flux_spectrum, pair):
        spec = b1_half_flux_spectrum
        env = Environment(x_qp=1e-9)
        i, j = pair
        f, downward, elems = transition(spec, i, j)
        expected = (2 * H * spec.params.el * 1e-9 / (math.pi * HBAR)
                    * math.sqrt(2 * GAP / f)
                    * elems["phi_elem"])
        if not downward:
            expected *= math.exp(-H * f / (K_B * env.t_qubit))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuasiparticleEnergyWarning)
            table = rates(spec, env, Mechanism.QP_ARRAY)
        assert table[i, j] == pytest.approx(expected, rel=1e-12)

    def test_boltzmann_suppressed_excitation(self, b1_half_flux_spectrum):
        spec = b1_half_flux_spectrum
        env = Environment(x_qp=1e-9)
        f = spec.energies[1] - spec.energies[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuasiparticleEnergyWarning)
            table = rates(spec, env, Mechanism.QP_ARRAY)
        assert table[0, 1] / table[1, 0] == pytest.approx(
            math.exp(-H * f / (K_B * env.t_qubit)), rel=1e-12)

    def test_junction_loss_negligible_at_sweet_spot(self, b1_half_flux_spectrum):
        # parity zero of sin(phi/2) at half flux: the single junction cannot
        # explain measured-scale decay there at any plausible density
        env = Environment(x_qp=1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuasiparticleEnergyWarning)
            table = rates(b1_half_flux_spectrum, env, Mechanism.QP_JUNCTION)
        assert table[1, 0] < 1.0  # T1 > 1 s from this channel alone

    def test_warns_above_gap_fraction(self, b1_params, monkeypatch):
        monkeypatch.setattr(loss, "GAP", 30e9)
        env = Environment(x_qp=1e-9)
        # one warning per table, counting live unordered pairs above gap/10
        for n_levels in (2, 6):
            spec = diagonalize(b1_params, FluxBias(0.0), n_levels=n_levels)  # f01 ~4.4 GHz
            i, j = np.triu_indices(n_levels, k=1)
            live_hot = np.count_nonzero(
                (spec.energies[j] - spec.energies[i] > loss.GAP / 10)
                & (spec.sin_half_elem[i, j] != 0.0))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                build_mechanism_table(spec, None, env, Mechanism.QP_JUNCTION)
            qp = [w for w in caught if issubclass(w.category, QuasiparticleEnergyWarning)]
            assert len(qp) == 1
            count = int(re.search(r": (\d+) level pair", str(qp[0].message)).group(1))
            assert count == live_hot
            if n_levels == 2:
                assert count == 1


class TestRateRadiative:
    def test_zero_couplings(self, b1_half_flux_spectrum):
        assert not rates(b1_half_flux_spectrum, Environment(c_drive=0.0),
                         Mechanism.CHARGE_LINE).any()
        assert not rates(b1_half_flux_spectrum, Environment(m_drive=0.0),
                         Mechanism.FLUX_LINE).any()

    @pytest.mark.parametrize("pair", DIRECTED)
    def test_charge_pair_sum_against_direct_formula(self, b1_half_flux_spectrum, pair):
        spec = b1_half_flux_spectrum
        env = Environment(t_qubit=0.040)
        i, j = pair
        f, downward, elems = transition(spec, i, j)
        omega = 2 * math.pi * f
        c_sigma = spec.params.c_sigma
        coupling = 2 * E_CHARGE * env.c_drive / c_sigma
        expected = (2 / HBAR**2 * coupling**2 * elems["n_elem"]
                    * HBAR * omega * 50.0 * coth(H * f / (2 * K_B * 0.040)))
        table = rates(spec, env, Mechanism.CHARGE_LINE)
        assert table[i, j] + table[j, i] == pytest.approx(expected, rel=1e-12)
        assert table[i, j] == pytest.approx(
            expected * thermal_share(f, 0.040, downward), rel=1e-12)

    @pytest.mark.parametrize("pair", DIRECTED)
    def test_flux_pair_sum_against_direct_formula(self, b1_half_flux_spectrum, pair):
        spec = b1_half_flux_spectrum
        env = Environment(t_qubit=0.040)
        i, j = pair
        f, downward, elems = transition(spec, i, j)
        omega = 2 * math.pi * f
        el_joule = H * spec.params.el
        expected = (8 * math.pi**2 * el_joule**2 * env.m_drive**2 * omega
                    / (HBAR * PHI0**2 * 50.0)
                    * elems["phi_elem"]
                    * coth(H * f / (2 * K_B * 0.040)))
        table = rates(spec, env, Mechanism.FLUX_LINE)
        assert table[i, j] + table[j, i] == pytest.approx(expected, rel=1e-12)
        assert table[i, j] == pytest.approx(
            expected * thermal_share(f, 0.040, downward), rel=1e-12)

    def test_quadratic_scaling_in_couplings(self, b1_half_flux_spectrum):
        spec = b1_half_flux_spectrum
        charge1 = rates(spec, Environment(c_drive=20e-18), Mechanism.CHARGE_LINE)[1, 0]
        charge2 = rates(spec, Environment(c_drive=40e-18), Mechanism.CHARGE_LINE)[1, 0]
        assert charge2 == pytest.approx(4 * charge1, rel=1e-12)
        flux1 = rates(spec, Environment(m_drive=1e-13), Mechanism.FLUX_LINE)[1, 0]
        flux2 = rates(spec, Environment(m_drive=2e-13), Mechanism.FLUX_LINE)[1, 0]
        assert flux2 == pytest.approx(4 * flux1, rel=1e-12)


class TestPurcellImpedance:
    def test_peak_at_resonance_matches_weak_coupling_algebra(self, b1_resonator):
        res = b1_resonator
        m = purcell_mutual_inductance(res)
        omega_res = 2 * math.pi * res.omega_res
        # exact expression at the cotangent zero: Z0 * 2j Z0^2 / (j w^2 M^2)
        expected = 2 * RESONATOR_Z0**3 / (omega_res**2 * m**2)
        at_res = purcell_resistance(res, res.omega_res)
        assert at_res == pytest.approx(expected, rel=1e-12)
        # and it is the scan maximum
        scan = purcell_resistance(res, np.linspace(0.2e9, 3 * res.omega_res, 4001))
        assert at_res >= max(scan) * (1 - 1e-6)

    def test_real_part_vanishes_at_low_frequency(self, b1_resonator):
        assert purcell_resistance(b1_resonator, 1e3) == pytest.approx(0.0, abs=1e-9)

    def test_cotangent_pole_is_finite(self, b1_resonator):
        # at f = 2 f_res the cotangent diverges; the limit is w^2 M^2 / (2 Z0)
        res = b1_resonator
        m = purcell_mutual_inductance(res)
        omega = 2 * math.pi * 2 * res.omega_res
        value = purcell_resistance(res, 2 * res.omega_res)
        assert value == pytest.approx(omega**2 * m**2 / (2 * RESONATOR_Z0), rel=1e-9)

    @pytest.mark.parametrize("qubit", ["A1", "A2", "A3", "A4", "A5", "B1", "B2", "B3"])
    def test_is_the_real_part_of_the_input_impedance(self, qubit):
        # the closed form against the complex impedance it is derived from,
        # on every level pair of the device over flux
        res = resonator_of(qubit)
        for phi in np.linspace(0.0, 0.5, 6):
            spec = diagonalize(params_of(qubit), FluxBias(phi), n_levels=6)
            i, j = np.triu_indices(6, k=1)
            f = spec.energies[j] - spec.energies[i]
            np.testing.assert_allclose(purcell_resistance(res, f),
                                       input_impedance(res, f).real, rtol=1e-14, atol=0)

    def test_mutual_inductance_closed_form(self):
        res = resonator_of("B1")
        q_res = res.omega_res / res.kappa
        expected = RESONATOR_Z0 / (2 * math.pi * res.omega_res) * math.sqrt(math.pi / (2 * q_res))
        assert purcell_mutual_inductance(res) == pytest.approx(expected, rel=1e-12)


class TestRatePurcell:
    def test_zero_coupling(self, b1_half_flux_spectrum, b1_environment):
        res = ResonatorParams(omega_res=7.039e9, g=0.0, kappa=0.29e6)
        assert not rates(b1_half_flux_spectrum, b1_environment, Mechanism.PURCELL, res).any()

    @pytest.mark.parametrize("pair", DIRECTED)
    def test_against_direct_formula(self, b1_half_flux_spectrum, b1_resonator, pair):
        spec = b1_half_flux_spectrum
        env = Environment(t_res=0.065)
        i, j = pair
        f, downward, elems = transition(spec, i, j)
        omega = 2 * math.pi * f
        c_sigma = spec.params.c_sigma
        c_c = coupling_capacitance(b1_resonator, c_sigma)
        pair_expected = (8 * E_CHARGE**2 * omega / HBAR * (c_c / c_sigma) ** 2
                         * elems["n_elem"]
                         * input_impedance(b1_resonator, f).real
                         * coth(H * f / (2 * K_B * 0.065)))
        table = rates(spec, env, Mechanism.PURCELL, b1_resonator)
        assert table[i, j] + table[j, i] == pytest.approx(pair_expected, rel=1e-9)
        assert table[i, j] == pytest.approx(
            pair_expected * thermal_share(f, 0.065, downward), rel=1e-9)

    def test_uses_resonator_temperature(self, b1_half_flux_spectrum, b1_resonator):
        spec = b1_half_flux_spectrum
        f = spec.energies[1] - spec.energies[0]
        env = Environment(t_qubit=0.040, t_res=0.065)
        table = rates(spec, env, Mechanism.PURCELL, b1_resonator)
        assert table[1, 0] / table[0, 1] == pytest.approx(
            math.exp(H * f / (K_B * 0.065)), rel=1e-9)

    def test_peaks_where_transition_meets_resonator(self, b1_params, b1_resonator):
        # sweep across the region where a higher transition crosses the
        # resonator; the total Purcell-limited rate must show a local maximum
        env = Environment()
        fluxes = np.linspace(0.05, 0.45, 41)
        totals = []
        for phi in fluxes:
            spec = diagonalize(b1_params, FluxBias(phi), n_levels=6)
            totals.append(rates(spec, env, Mechanism.PURCELL, b1_resonator).sum())
        totals = np.array(totals)
        interior = np.argmax(totals)
        assert 0 < interior < len(totals) - 1


class TestBuildMechanismTable:
    def test_two_level_table_has_two_entries(self, b1_params, b1_resonator,
                                             b1_environment):
        spec = diagonalize(b1_params, FluxBias(0.5), n_levels=2)
        table = rates(spec, b1_environment, Mechanism.CAPACITIVE, b1_resonator)
        assert np.count_nonzero(table) == 2
        assert table[0, 0] == 0.0 and table[1, 1] == 0.0

    def test_shared_work_is_keyed_by_operator_and_temperature(self, b1_params, b1_resonator):
        # the channels of one spectrum share its split pairs, each operator's
        # |O_ij|^2 and each bath's factors at each temperature: every channel
        # built there in baths that differ in t_qubit or t_res alone equals
        # its build on a copy of the spectrum with an empty memo
        spec = diagonalize(b1_params, FluxBias(0.3), n_levels=6)
        base = Environment(a_phi=1e-11, x_qp=1e-9)
        baths = [base, replace(base, t_qubit=0.02), replace(base, t_res=0.12),
                 replace(base, t_qubit=0.08, t_res=0.03)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuasiparticleEnergyWarning)
            for env, mechanism in itertools.product(baths, Mechanism):
                shared = build_mechanism_table(spec, b1_resonator, env, mechanism)
                fresh = build_mechanism_table(replace(spec), b1_resonator, env, mechanism)
                for f in fields(ChannelPairs):
                    got, want = getattr(shared, f.name), getattr(fresh, f.name)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), \
                        (env, mechanism, f.name)
        assert spec.memo

    @pytest.mark.parametrize("mechanism", [
        Mechanism.CAPACITIVE, Mechanism.CHARGE_LINE, Mechanism.FLUX_LINE,
        Mechanism.PURCELL, Mechanism.QP_JUNCTION, Mechanism.QP_ARRAY,
    ])
    def test_detailed_balance_entrywise(self, b1_half_flux_spectrum, b1_resonator,
                                        mechanism):
        env = Environment(x_qp=1e-9)
        spec = b1_half_flux_spectrum
        temp = env.t_res if mechanism is Mechanism.PURCELL else env.t_qubit
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuasiparticleEnergyWarning)
            table = rates(spec, env, mechanism, b1_resonator)
        for i in range(spec.n_levels):
            for j in range(i + 1, spec.n_levels):
                down, up = table[j, i], table[i, j]
                if down == 0.0 or up == 0.0:
                    continue
                f = spec.energies[j] - spec.energies[i]
                assert down / up == pytest.approx(
                    math.exp(H * f / (K_B * temp)), rel=1e-9)

    def test_flux_noise_table_symmetric(self, b1_half_flux_spectrum, b1_resonator,
                                        b1_environment):
        table = rates(b1_half_flux_spectrum, b1_environment, Mechanism.FLUX_NOISE,
                      b1_resonator)
        np.testing.assert_array_equal(table, table.T)

    def test_all_rates_nonnegative(self, b1_half_flux_spectrum, b1_resonator):
        env = Environment(a_phi=1e-11, x_qp=1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuasiparticleEnergyWarning)
            for mechanism in Mechanism:
                assert (rates(b1_half_flux_spectrum, env, mechanism, b1_resonator)
                        >= 0.0).all()

    def test_mechanism_sum_equals_two_level_addition_of_rates(
            self, b1_half_flux_spectrum, b1_resonator):
        # independent summation: add the ten directional 0<->1 rates by hand
        env = environment_of("B1")
        spec = b1_half_flux_spectrum
        by_hand = 0.0
        for m in ANALYSIS_MECHANISMS:
            table = rates(spec, env, m, b1_resonator)
            by_hand += table[0, 1]
            by_hand += table[1, 0]
        via_total = two_level_total_rate(spec, b1_resonator, env, ANALYSIS_MECHANISMS)
        assert via_total == pytest.approx(by_hand, rel=1e-12)


class TestDegenerateTransitions:
    @staticmethod
    def _degenerate_spectrum(dead_pair=None):
        # synthetic two-fold degenerate pair (1, 2) with live matrix elements;
        # dead_pair zeroes every operator's element on that pair
        energies = np.array([0.0, 1.0e9, 1.0e9, 5.0e9])
        ones = np.ones((4, 4)) - np.eye(4)
        if dead_pair is not None:
            ones[dead_pair] = ones[dead_pair[::-1]] = 0.0
        return Spectrum(
            params=FluxoniumParams(ej=3e9, ec=1e9, el=0.5e9),
            bias=FluxBias(0.3),
            energies=energies,
            n_elem=(0.1 * ones).astype(complex),
            phi_elem=0.5 * ones,
            sin_half_elem=0.2 * ones,
            basis_dim=140,
            n_levels=4,
        )

    @pytest.mark.parametrize("mechanism", list(Mechanism), ids=lambda m: m.value)
    def test_degenerate_pair_raises_zero_transition(self, mechanism):
        spec = self._degenerate_spectrum()
        env = Environment(a_phi=1e-11, x_qp=1e-9)
        with pytest.raises(ZeroTransitionError, match=r"\(1, 2\)"):
            build_mechanism_table(spec, resonator_of("B1"), env, mechanism)

    @pytest.mark.parametrize("mechanism", list(Mechanism), ids=lambda m: m.value)
    def test_degenerate_pair_without_element_is_zero(self, mechanism):
        spec = self._degenerate_spectrum(dead_pair=(1, 2))
        env = Environment(a_phi=1e-11, x_qp=1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QuasiparticleEnergyWarning)
            table = rates(spec, env, mechanism, resonator_of("B1"))
        assert table[1, 2] == 0.0 and table[2, 1] == 0.0
        assert table[0, 1] > 0.0

    def test_capacitive_factor_touches_only_split_pairs(self):
        # at epsilon = -1 the factor (f / 6 GHz)^-1 of a degenerate pair would
        # be 1/0, and 0 * inf is nan: the dead pair stays exactly 0, silently
        from fluxt1.dynamics import BiasModel, build_rate_matrix

        env = Environment(epsilon=-1.0)
        capacitive = (Mechanism.CAPACITIVE,)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            table = rates(self._degenerate_spectrum(dead_pair=(1, 2)), env,
                          Mechanism.CAPACITIVE)
            # the spectrum's capacitive pairs are first read at the default
            # exponent, then evaluated at -1
            spec = self._degenerate_spectrum(dead_pair=(1, 2))
            build_rate_matrix(BiasModel(spec, None, Environment()).rates(capacitive))
            model = BiasModel(spec, None, env)
            assert model.pair_rate(capacitive) == table[0, 1] + table[1, 0] > 0.0
            moved = build_rate_matrix(model.rates(capacitive)).b
        assert table[1, 2] == 0.0 and table[2, 1] == 0.0
        assert moved[1, 2] == 0.0 and moved[2, 1] == 0.0
        assert np.array_equal(moved[~np.eye(4, dtype=bool)], table.T[~np.eye(4, dtype=bool)])
        live = BiasModel(self._degenerate_spectrum(), None, env)
        for read in (lambda: rates(self._degenerate_spectrum(), env, Mechanism.CAPACITIVE),
                     lambda: live.pair_rate(capacitive)):
            with pytest.raises(ZeroTransitionError, match=r"\(1, 2\)"):
                read()

    def test_degenerate_zero_one_pair_carries_no_capacitive_rate(self):
        from fluxt1.dynamics import BiasModel

        spec = replace(self._degenerate_spectrum(dead_pair=(0, 1)),
                       energies=np.array([0.0, 0.0, 1.0e9, 5.0e9]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for eps in (-1.0, 0.25, 2.0):
                model = BiasModel(spec, None, Environment(epsilon=eps))
                assert model.pair_rate((Mechanism.CAPACITIVE,)) == 0.0
            pairs = model.pairs(Mechanism.CAPACITIVE)
            assert not loss.capacitive_pair_rates(*pairs.pair_01(), 3e5, (-1.0, 0.25)).any()

    @pytest.mark.parametrize("mechanism, off", [
        (Mechanism.FLUX_NOISE, dict(a_phi=0.0)),
        (Mechanism.QP_JUNCTION, dict(x_qp=0.0)),
        (Mechanism.QP_ARRAY, dict(x_qp=0.0)),
        (Mechanism.CHARGE_LINE, dict(c_drive=0.0)),
        (Mechanism.FLUX_LINE, dict(m_drive=0.0)),
        (Mechanism.PURCELL, dict(g=0.0)),
    ], ids=lambda v: getattr(v, "value", ""))
    def test_switched_off_channel_ignores_degenerate_pair(self, mechanism, off):
        res = replace(resonator_of("B1"), g=off.pop("g", 118e6))
        env = Environment(**{"a_phi": 1e-11, "x_qp": 1e-9, **off})
        assert not rates(self._degenerate_spectrum(), env, mechanism, res).any()


@settings(max_examples=30, deadline=None)
@given(temp=st.floats(0.005, 0.5), pair=st.sampled_from(PAIRS))
def test_capacitive_detailed_balance_property(b1_half_flux_spectrum, temp, pair):
    spec = b1_half_flux_spectrum
    env = Environment(t_qubit=temp, qc_eff=2e5, epsilon=0.25)
    i, j = pair
    table = rates(spec, env, Mechanism.CAPACITIVE)
    down, up = table[j, i], table[i, j]
    if down == 0.0:
        assert up == 0.0
        return
    f = spec.energies[j] - spec.energies[i]
    assert down / up == pytest.approx(math.exp(H * f / (K_B * temp)), rel=1e-9)

"""Rate-matrix construction, evolution, fits, exponentialness, T1 modes."""

import math
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from fluxt1.constants import H, K_B
import fluxt1.dynamics as dynamics
from fluxt1.dynamics import (
    FIT_AMPLITUDE_LIMIT,
    FIT_RESIDUAL_GATE,
    BiasModel,
    T1Mode,
    build_rate_matrix,
    decays,
    default_time_grid,
    evolve,
    fit_exponential,
    heralded_misassignment_error,
    invert_computational,
    multilevel_t1,
    predicted_t1,
    rising_root,
    thermal_population,
)
from fluxt1.errors import FitError, FluxT1Error, ModelTraceWarning, NumericalError
from fluxt1.hamiltonian import FluxBias, diagonalize
from fluxt1.io import parse_device_file
from fluxt1.loss import (
    ANALYSIS_MECHANISMS,
    Environment,
    Mechanism,
    build_mechanism_table,
)
from fluxt1.pipeline import (
    EPSILON_GRID,
    ROOT_XTOL,
    CachedSpectrumProvider,
    QceffInverter,
    T1Dataset,
    T1Record,
    extract_qceff_dataset,
)

from conftest import environment_of, params_of, resonator_of
from reference import exponentialness, stationary_distribution, two_level_total_rate

SHIPPED_DEVICES = sorted((Path(__file__).resolve().parents[1] / "devices").glob("*.json"))


def random_db_generator(rng, n=6, temperature=0.040):
    """Random detailed-balance rates over a random ladder of splittings."""
    freqs = np.sort(rng.uniform(0.2e9, 9e9, size=n - 1)).cumsum()
    energies = np.concatenate([[0.0], freqs])
    base = rng.uniform(1e2, 1e5, size=(n, n))
    rates = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            f = energies[i] - energies[j]
            if f > 0:  # downward
                rates[i, j] = base[min(i, j), max(i, j)]
            else:
                gap = energies[j] - energies[i]
                rates[i, j] = base[min(i, j), max(i, j)] * math.exp(
                    -H * gap / (K_B * temperature))
    boltzmann = np.exp(-H * energies / (K_B * temperature))
    return rates, boltzmann / boltzmann.sum()


def b1_model_trace(kind):
    """B1 at Phi = 0.3, all analysis channels: the p1 decay or the readout signal."""
    spec = diagonalize(params_of("B1"), FluxBias(0.3), n_levels=6)
    model = BiasModel(spec, resonator_of("B1"), environment_of("B1"))
    times, populations = model.decay()
    if kind == "population":
        return times, populations[:, 1]
    return times, np.abs(populations @ model.weights)


class TestBuildRateMatrix:
    def test_two_level_closed_form_eigenvalues(self):
        rates = np.array([[0.0, 120.0], [70.0, 0.0]])
        rm = build_rate_matrix(rates)
        expected = sorted([0.0, -(120.0 + 70.0)])
        assert sorted(rm.eigenvalues) == pytest.approx(expected, abs=1e-9)

    def test_column_sums_vanish(self, rng):
        rates, _ = random_db_generator(rng)
        rm = build_rate_matrix(rates)
        assert np.abs(rm.b.sum(axis=0)).max() <= 1e-12 * np.abs(rm.b).max()

    def test_stationary_equals_boltzmann_for_db_tables(self, rng):
        rates, boltzmann = random_db_generator(rng)
        rm = build_rate_matrix(rates)
        np.testing.assert_allclose(stationary_distribution(rm), boltzmann, atol=1e-9)

    def test_b1_all_thermal_mechanisms_stationary_is_boltzmann(
            self, b1_half_flux_spectrum, b1_resonator):
        # every thermal channel pinned to the qubit bath: the stationary mode
        # must be the 40 mK Boltzmann state (flux noise excluded: classical
        # symmetric noise has no temperature to equilibrate to)
        env = environment_of("B1", x_qp=1e-9, t_res=0.040)
        mechanisms = [Mechanism.CAPACITIVE, Mechanism.CHARGE_LINE, Mechanism.FLUX_LINE,
                      Mechanism.PURCELL, Mechanism.QP_JUNCTION, Mechanism.QP_ARRAY]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rm = build_rate_matrix(BiasModel(b1_half_flux_spectrum, b1_resonator,
                                             env).rates(mechanisms))
        boltzmann = thermal_population(b1_half_flux_spectrum, 0.040)
        np.testing.assert_allclose(stationary_distribution(rm), boltzmann, atol=1e-6)

    def test_real_eigensystem_stays_float64(self, rng):
        rates, _ = random_db_generator(rng)
        rm = build_rate_matrix(rates)
        assert rm.eigenvalues.dtype == rm.eigenvectors.dtype == np.float64

    def test_cycle_keeps_complex_pair_and_evolves_exactly(self):
        # a driven 3-cycle: eigenvalues 0 and -151.5 +- 85.7i
        rates = np.array([[0.0, 100.0, 1.0], [1.0, 0.0, 100.0], [100.0, 1.0, 0.0]])
        with pytest.warns(ModelTraceWarning, match="complex eigenpair") as record:
            rm = build_rate_matrix(rates)
        assert len(record) == 1
        assert rm.eigenvalues.dtype == rm.eigenvectors.dtype == np.complex128
        assert np.abs(rm.eigenvalues.imag).max() == pytest.approx(85.7365, rel=1e-5)
        p0 = np.array([1.0, 0.0, 0.0])
        times = np.linspace(0.0, 0.05, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ModelTraceWarning)  # not renormalized
            populations = evolve(rm, p0, times)
        sol = solve_ivp(lambda t, y: rm.b @ y, (0.0, times[-1]), p0,
                        t_eval=times, method="DOP853", rtol=1e-11, atol=1e-13)
        assert np.max(np.abs(populations - sol.y.T)) < 1e-8
        np.testing.assert_allclose(populations.sum(axis=1), 1.0, atol=1e-12)

    def test_reducible_generator_stays_complex_silently_and_has_no_decay(self):
        # A1 at half flux, junction quasiparticles alone: parity splits the
        # levels into two closed sets, so the generator has two zero modes,
        # and eig returns a complex system with a negligible imaginary part;
        # level 1 has no path to level 0, so no mode has a decay to fit
        spec = diagonalize(params_of("A1"), FluxBias(0.5), n_levels=6)
        model = BiasModel(spec, resonator_of("A1"), environment_of("A1", x_qp=1e-9))
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            rm = build_rate_matrix(model.rates((Mechanism.QP_JUNCTION,)))
        assert not [w for w in record if "complex eigenpair" in str(w.message)]
        assert rm.eigenvalues.dtype == rm.eigenvectors.dtype == np.complex128
        assert np.abs(rm.eigenvalues.imag).max() <= 1e-9 * np.abs(rm.eigenvalues.real).max()
        with pytest.raises(NumericalError, match="found 2"):
            int(rm.stationary_indices())
        assert model.decay((Mechanism.QP_JUNCTION,)) is None
        for mode in T1Mode:
            assert model.t1(mode, (Mechanism.QP_JUNCTION,)) == math.inf

    def test_dimension_mismatch_rejected(self):
        for shape in [(2, 3), (3,), (2, 2, 3)]:
            with pytest.raises(ValueError, match="square"):
                build_rate_matrix(np.ones(shape))

    def test_leading_axes_are_a_stack(self, rng):
        stack = np.stack([random_db_generator(rng)[0] for _ in range(6)]).reshape(2, 3, 6, 6)
        rm = build_rate_matrix(stack)
        assert rm.b.shape == (2, 3, 6, 6) and rm.eigenvalues.shape == (2, 3, 6)
        for index in np.ndindex(2, 3):
            alone = build_rate_matrix(stack[index])
            np.testing.assert_array_equal(rm.b[index], alone.b)
            np.testing.assert_array_equal(rm.eigenvalues[index], alone.eigenvalues)


class TestThermalPopulation:
    def test_zero_temperature_limit(self, b1_half_flux_spectrum):
        p = thermal_population(b1_half_flux_spectrum, 1e-6)
        np.testing.assert_allclose(p, [1, 0, 0, 0, 0, 0], atol=1e-12)

    def test_degenerate_levels_equal_population(self):
        spec = diagonalize(params_of("A5"), FluxBias(0.5), n_levels=2)
        # 42 MHz splitting at 1 K is effectively degenerate
        p = thermal_population(spec, 1.0)
        assert p[0] == pytest.approx(p[1], rel=2e-3)

    def test_b1_ratio_matches_boltzmann_factor(self, b1_half_flux_spectrum):
        p = thermal_population(b1_half_flux_spectrum, 0.040)
        f01 = b1_half_flux_spectrum.energies[1] - b1_half_flux_spectrum.energies[0]
        assert p[1] / p[0] == pytest.approx(math.exp(-H * f01 / (K_B * 0.040)), rel=1e-12)


class TestInvertComputational:
    def test_swaps_first_two(self):
        np.testing.assert_array_equal(invert_computational([1.0, 0.0, 0.0]),
                                      [0.0, 1.0, 0.0])

    def test_involution(self, rng):
        p = rng.dirichlet(np.ones(6))
        np.testing.assert_array_equal(invert_computational(invert_computational(p)), p)

    def test_preserves_normalization(self, b1_half_flux_spectrum):
        p = invert_computational(thermal_population(b1_half_flux_spectrum, 0.040))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            invert_computational([1.0])


class TestEvolve:
    def test_time_zero_returns_initial(self, rng):
        rates, _ = random_db_generator(rng)
        rm = build_rate_matrix(rates)
        p0 = invert_computational(stationary_distribution(rm))
        populations = evolve(rm, p0, np.array([0.0]))
        np.testing.assert_allclose(populations[0], p0, atol=1e-12)

    def test_long_time_reaches_stationary(self, rng):
        rates, boltzmann = random_db_generator(rng)
        rm = build_rate_matrix(rates)
        p0 = np.zeros(6)
        p0[3] = 1.0
        slowest = 1.0 / min(-rm.eigenvalues[np.abs(rm.eigenvalues) > 1e-6])
        populations = evolve(rm, p0, np.array([60.0 * slowest]))
        np.testing.assert_allclose(populations[-1], boltzmann, atol=1e-9)

    def test_matches_adaptive_ode_integration(self, rng):
        for _ in range(5):
            rates, _ = random_db_generator(rng)
            rm = build_rate_matrix(rates)
            p0 = invert_computational(stationary_distribution(rm))
            times = default_time_grid(rm, p0)
            populations = evolve(rm, p0, times)
            sol = solve_ivp(lambda t, y: rm.b @ y, (0.0, times[-1]), p0,
                            t_eval=times, method="DOP853", rtol=1e-11, atol=1e-13)
            assert np.max(np.abs(populations - sol.y.T)) < 1e-8

    def test_rows_are_probability_vectors(self, rng):
        rates, _ = random_db_generator(rng)
        rm = build_rate_matrix(rates)
        p0 = invert_computational(stationary_distribution(rm))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ModelTraceWarning)  # not renormalized
            populations = evolve(rm, p0, np.logspace(-7, -1, 40))
        np.testing.assert_allclose(populations.sum(axis=1), 1.0, atol=1e-9)
        assert not populations.flags.writeable

    def test_drifting_rows_warn_and_are_renormalized(self, rng):
        # an eigenvector inverse off by 1e-6 drifts every row's sum that far
        rates, _ = random_db_generator(rng)
        rm = build_rate_matrix(rates)
        skewed = replace(rm, _vinv=rm._vinv * (1.0 + 1e-6))
        p0 = invert_computational(stationary_distribution(rm))
        with pytest.warns(ModelTraceWarning, match="probability drifted by"):
            populations = evolve(skewed, p0, np.logspace(-7, -1, 40))
        np.testing.assert_allclose(populations.sum(axis=1), 1.0, atol=1e-12)
        assert np.abs(populations - evolve(rm, p0, np.logspace(-7, -1, 40))).max() < 1e-9

    def test_rejects_bad_initial_state(self, rng):
        rates, _ = random_db_generator(rng)
        rm = build_rate_matrix(rates)
        with pytest.raises(ValueError):
            evolve(rm, np.full(6, 0.3), np.array([0.0]))


class TestDefaultTimeGrid:
    # levels 1 and 2 decay only to 0, at 300/s and 100/s
    FAN = np.array([[0.0, 0.0, 0.0], [300.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
    # a driven 3-cycle: eigenvalues 0 and -151.5 +- 85.7i
    CYCLE = np.array([[0.0, 100.0, 1.0], [1.0, 0.0, 100.0], [100.0, 1.0, 0.0]])
    # (rates, p0, the decay rate that sets the grid)
    CASES = [
        # both decay modes overlap (0, 1/2, 1/2) equally: the slower one
        (FAN, [0.0, 0.5, 0.5], 100.0),
        # a real state overlaps the two modes of a conjugate pair equally
        (CYCLE, [1.0, 0.0, 0.0], 151.5),
        # the stationary state overlaps no decay mode: the first one, at 300/s
        (FAN, [1.0, 0.0, 0.0], 300.0),
    ]

    @pytest.mark.filterwarnings("ignore:generator has a complex eigenpair")
    def test_a_tie_ends_the_grid_at_8_over_the_slowest_tied_rate(self):
        stack = build_rate_matrix(np.stack([rates for rates, _, _ in self.CASES]))
        grids = default_time_grid(stack, np.array([p0 for _, p0, _ in self.CASES]))
        for k, (rates, p0, rate) in enumerate(self.CASES):
            alone = default_time_grid(build_rate_matrix(rates), np.array(p0))
            for grid in (alone, grids[k]):
                assert grid[-1] == pytest.approx(8.0 / rate, rel=1e-12)
                assert grid[0] == pytest.approx(1.0 / (50.0 * rate), rel=1e-12)


class TestFitExponential:
    def test_exact_exponential_recovered(self):
        t = np.logspace(-6, -3, 40)
        y = 1.0 * np.exp(-t / 100e-6)
        fit = fit_exponential(t, y)
        assert fit.t1 == pytest.approx(100e-6, rel=1e-9)
        assert fit.offset == pytest.approx(0.0, abs=1e-12)

    def test_offset_recovered(self):
        t = np.logspace(-6, -3, 51)
        y = 0.7 * np.exp(-t / 100e-6) + 0.3
        fit = fit_exponential(t, y)
        assert fit.t1 == pytest.approx(100e-6, rel=1e-6)
        assert fit.offset == pytest.approx(0.3, rel=1e-6)

    @pytest.mark.parametrize("trace", ["two_mode", "b1_population", "b1_signal"])
    def test_two_mode_signal_fits_near_slow_mode(self, trace):
        from scipy.optimize import least_squares

        if trace == "two_mode":
            t = np.logspace(np.log10(5e-6), np.log10(8e-4), 51)
            y = 0.9 * np.exp(-t / 100e-6) + 0.1 * np.exp(-t / 20e-6)
        else:
            t, y = b1_model_trace(trace.removeprefix("b1_"))
        fit = fit_exponential(t, y)
        # independent reference: trf optimizer over a log-tau parameterization
        # with multi-start, i.e. a different route to the same least-squares
        # optimum

        def residuals(p):
            a, log_tau, c = p
            return a * np.exp(-t / np.exp(log_tau)) + c - y

        best = min(
            (least_squares(residuals, [y[0] - y[-1], np.log(tau0), y[-1]],
                           method="trf", xtol=1e-15, ftol=1e-15)
             for tau0 in t[-1] * np.array([1 / 80, 1 / 16, 1 / 8, 3 / 8])),
            key=lambda r: r.cost,
        )
        reference_t1 = float(np.exp(best.x[1]))
        assert fit.t1 == pytest.approx(reference_t1, rel=1e-6)
        if trace == "two_mode":
            assert fit.t1 == pytest.approx(100e-6, rel=0.10)

    def test_fitted_t1_scales_exactly_with_the_time_axis(self):
        # stretching the time axis by (1 + d) stretches the least-squares T1
        # by exactly (1 + d); a fit stopped short of the optimum scatters by
        # ~1e-8 instead
        t = np.logspace(np.log10(5e-6), np.log10(8e-4), 51)
        y = 0.9 * np.exp(-t / 100e-6) + 0.1 * np.exp(-t / 20e-6) + 0.02
        base = fit_exponential(t, y).t1
        for d in (1e-9, 3e-8, 1e-6, 1e-4):
            assert fit_exponential(t * (1.0 + d), y).t1 / (base * (1.0 + d)) == \
                pytest.approx(1.0, abs=1e-12)

    def test_constant_signal_rejected(self):
        with pytest.raises(FitError):
            fit_exponential(np.linspace(0, 1, 10), np.ones(10))

    def test_too_few_samples_rejected(self):
        with pytest.raises(FitError):
            fit_exponential(np.array([0.0, 1.0, 2.0]), np.array([3.0, 2.0, 1.0]))

    @pytest.mark.parametrize("slope", [-1.0, 1.0])
    def test_linear_trace_rejected(self, slope):
        # a straight line is the k -> 0 limit of the model: the residual keeps
        # falling toward T1 = inf, so there is no decay time to report
        t = np.logspace(-6, -3, 51)
        with pytest.raises(FitError):
            fit_exponential(t, 0.5 + slope * t / t[-1])

    def test_decay_the_grid_does_not_resolve_is_rejected(self):
        # exact data, but the trace falls by only 1e-4 of its amplitude: the
        # fit needs |A| = 1e4 ptp(y), beyond FIT_AMPLITUDE_LIMIT
        t = np.logspace(-6, -3, 51)
        with pytest.raises(FitError, match="amplitude"):
            fit_exponential(t, np.exp(-t / 10.0))

    def test_slow_resolved_decay_recovered(self):
        # the same grid resolves a decay to T1 = 10 t[-1], at |A| ~ 10 ptp(y)
        t = np.logspace(-6, -3, 51)
        y = np.exp(-t / 1e-2)
        fit = fit_exponential(t, y)
        assert fit.t1 == pytest.approx(1e-2, rel=1e-9)
        assert fit.amplitude <= FIT_AMPLITUDE_LIMIT * np.ptp(y)


class TestSimulateSignal:
    def test_identical_weights_give_constant_signal(self, b1_half_flux_spectrum,
                                                    b1_environment, b1_resonator):
        model = BiasModel(b1_half_flux_spectrum, b1_resonator, b1_environment)
        rm = build_rate_matrix(model.rates())
        populations = evolve(rm, model.p0, np.logspace(-6, -2, 30))
        signal = np.abs(populations @ model.weights)
        # replaying the trace with equal weights collapses the signal
        flat = np.abs(populations @ np.full(rm.n, 0.5))
        np.testing.assert_allclose(flat, 0.5, atol=1e-9)
        assert np.ptp(signal) > 0  # the real weights resolve the decay

    def test_two_level_signal_is_single_exponential(self, b1_params, b1_resonator):
        env = environment_of("B1")
        spec = diagonalize(b1_params, FluxBias(0.5), n_levels=2)
        model = BiasModel(spec, b1_resonator, env)
        times, populations = model.decay()
        fit = fit_exponential(times, np.abs(populations @ model.weights))
        gamma = two_level_total_rate(spec, b1_resonator, env)
        assert fit.t1 == pytest.approx(1.0 / gamma, rel=1e-9)
        assert fit.residual_rms < 1e-12
        assert model.t1(T1Mode.MULTILEVEL_SIGNAL) == pytest.approx(1.0 / gamma, rel=1e-9)


class TestMeasuredScaleConsistency:
    # half-flux relaxation measured for each device (us); the per-qubit mean
    # quality factor comes from the full frequency range, so the sweet-spot
    # point only agrees to order unity -- but that is exactly the gate that
    # catches unit slips (a stray 2*pi moves every ratio by ~6x)
    MEASURED_T1_US = {"A1": 124, "A2": 157, "A3": 138, "A4": 404,
                      "A5": 129, "B1": 85, "B2": 104, "B3": 325}

    def test_predictions_land_on_measured_scale(self):
        ratios = {}
        for qubit, measured in self.MEASURED_T1_US.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                t1 = predicted_t1(params_of(qubit), resonator_of(qubit),
                                  environment_of(qubit), FluxBias(0.5),
                                  mode=T1Mode.MULTILEVEL_POPULATION)
            ratios[qubit] = t1 * 1e6 / measured
        assert all(0.2 <= r <= 5.0 for r in ratios.values()), ratios
        # the flagship device, whose mean anchors the model overlays, agrees
        # closely at its own sweet spot
        assert 0.7 <= ratios["B1"] <= 1.4


class TestSignalModelDistortion:
    def test_b2_signal_fit_deviates_at_known_bias(self):
        # at the bias where higher-state resonator pulls distort the readout
        # most, the signal-fit T1 sits well below the population-fit T1
        params = params_of("B2")
        res = resonator_of("B2")
        env = environment_of("B2")
        spec = diagonalize(params, FluxBias(0.185), n_levels=6)
        model = BiasModel(spec, res, env)
        times, populations = model.decay()
        fit_p1 = fit_exponential(times, populations[:, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            signal = np.abs(populations @ model.weights)
        fit_s = fit_exponential(times, signal)
        deviation = abs(fit_p1.t1 - fit_s.t1) / fit_p1.t1
        assert 0.10 <= deviation <= 0.20


class TestExponentialness:
    def test_two_levels_give_zero(self):
        rates = np.array([[0.0, 90.0], [40.0, 0.0]])
        rm = build_rate_matrix(rates)
        m, _ = exponentialness(rm, np.array([0.3, 0.7]))
        assert m < 1e-13

    def test_matches_explicit_reconstruction(self, rng):
        for _ in range(10):
            rates, _ = random_db_generator(rng, n=4)
            rm = build_rate_matrix(rates)
            p0 = rng.dirichlet(np.ones(4))
            m, dominant_index = exponentialness(rm, p0)
            c = np.linalg.solve(rm.eigenvectors, p0)
            s = int(rm.stationary_indices())
            others = [k for k in range(4) if k != s]
            k_max = max(others, key=lambda k: abs(c[k]) ** 2)
            delta = p0 - c[s] * rm.eigenvectors[:, s] - c[k_max] * rm.eigenvectors[:, k_max]
            assert dominant_index == k_max
            assert m == pytest.approx(float(np.linalg.norm(delta)), rel=1e-9, abs=1e-15)

    def test_a3_interior_maximum_still_fits_single_exponential(self):
        params = params_of("A3")
        res = resonator_of("A3")
        env = environment_of("A3")
        fluxes = np.linspace(0.02, 0.48, 24)
        ms, residuals = [], []
        for phi in fluxes:
            spec = diagonalize(params, FluxBias(phi), n_levels=6)
            model = BiasModel(spec, res, env)
            ms.append(exponentialness(build_rate_matrix(model.rates()), model.p0)[0])
            times, populations = model.decay()
            fit = fit_exponential(times, populations[:, 1])
            residuals.append(fit.residual_rms / abs(fit.amplitude))
        peak = int(np.argmax(ms))
        assert 0 < peak < len(fluxes) - 1  # interior maximum
        assert residuals[peak] < 0.01  # still effectively exponential


def _heralded(model):
    times, populations = model.decay()
    return heralded_misassignment_error(times, populations,
                                        fit_exponential(times, populations[:, 1]))


class TestHeraldedMisassignment:
    def test_two_levels_vanish(self, b1_params, b1_resonator):
        env = environment_of("B1")
        spec = diagonalize(b1_params, FluxBias(0.5), n_levels=2)
        model = BiasModel(spec, b1_resonator, env)
        to_ground, to_excited = _heralded(model)
        assert to_ground == 0.0
        assert to_excited == 0.0

    def test_to_ground_exactly_zero_by_construction(self, b1_half_flux_spectrum,
                                                    b1_environment, b1_resonator):
        model = BiasModel(b1_half_flux_spectrum, b1_resonator, b1_environment)
        to_ground, _ = _heralded(model)
        assert to_ground == 0.0

    def test_b2_sweep_peak_band(self):
        # the lumped-population fit deviates most where higher levels carry
        # weight; magnitude and location must reproduce the reported analysis
        params = params_of("B2")
        res = resonator_of("B2")
        env = environment_of("B2")
        errs = []
        fluxes = np.linspace(0.0, 0.5, 51)
        for phi in fluxes:
            spec = diagonalize(params, FluxBias(phi), n_levels=6)
            model = BiasModel(spec, res, env)
            _, to_excited = _heralded(model)
            errs.append(abs(to_excited))
        peak = int(np.argmax(errs))
        assert 0.08 <= errs[peak] <= 0.18
        assert 0.0 <= fluxes[peak] <= 0.3


class TestPredictedT1:
    def test_two_level_single_mechanism_closed_form(self, b1_params, b1_resonator):
        env = environment_of("B1")
        bias = FluxBias(0.5)
        spec = diagonalize(b1_params, bias, n_levels=6)
        t1 = predicted_t1(b1_params, b1_resonator, env, bias, mode=T1Mode.TWO_LEVEL,
                          mechanisms=(Mechanism.CAPACITIVE,))
        gamma = two_level_total_rate(spec, b1_resonator, env, (Mechanism.CAPACITIVE,))
        assert t1 == pytest.approx(1.0 / gamma, rel=1e-12)

    def test_n2_population_equals_two_level(self, b1_params, b1_resonator):
        env = environment_of("B1")
        for phi in (0.1, 0.3, 0.5):
            bias = FluxBias(phi)
            two = predicted_t1(b1_params, b1_resonator, env, bias, mode=T1Mode.TWO_LEVEL,
                               n_levels=2)
            pop = predicted_t1(b1_params, b1_resonator, env, bias,
                               mode=T1Mode.MULTILEVEL_POPULATION, n_levels=2)
            assert pop == pytest.approx(two, rel=1e-9)

    @pytest.mark.filterwarnings("ignore:decay fit residual")
    @pytest.mark.parametrize("mode", list(T1Mode))
    def test_is_the_bias_model_on_its_spectrum(self, b1_params, b1_resonator, mode,
                                               monkeypatch):
        import fluxt1.dynamics as dynamics

        env = environment_of("B1")
        bias = FluxBias(0.5)
        spec = diagonalize(b1_params, bias, n_levels=6)
        solves = []
        monkeypatch.setattr(dynamics, "diagonalize",
                            lambda *a, **k: solves.append(k) or diagonalize(*a, **k))
        t1 = predicted_t1(b1_params, b1_resonator, env, bias, mode=mode, n_levels=6)
        assert solves == [{"n_levels": 6}]  # one solve, at the requested size
        assert t1 == BiasModel(spec, b1_resonator, env).t1(mode, ANALYSIS_MECHANISMS)

    def test_b1_six_level_close_to_two_level_at_half_flux(self, b1_params, b1_resonator):
        env = environment_of("B1")
        bias = FluxBias(0.5)
        two = predicted_t1(b1_params, b1_resonator, env, bias, mode=T1Mode.TWO_LEVEL)
        six = predicted_t1(b1_params, b1_resonator, env, bias,
                           mode=T1Mode.MULTILEVEL_POPULATION, n_levels=6)
        assert six == pytest.approx(two, rel=0.20)

    @pytest.mark.parametrize("qubit", ["A3", "B3"])
    def test_unresolved_flux_noise_signal_raises(self, qubit):
        # flux noise alone barely moves the signal on the grid its dominant
        # mode sets (A3: 57 ms), so the trace determines no decay time
        with pytest.raises(FitError):
            predicted_t1(params_of(qubit), resonator_of(qubit), environment_of(qubit),
                         FluxBias(0.24), mode=T1Mode.MULTILEVEL_SIGNAL,
                         mechanisms=(Mechanism.FLUX_NOISE,))

    def test_residual_gate_constant_known(self):
        assert FIT_RESIDUAL_GATE == 1e-3



class TestBiasModel:
    @pytest.mark.parametrize("mode", list(T1Mode), ids=lambda m: m.value)
    def test_switched_off_channel_gives_inf(self, mode, b1_params, b1_resonator):
        # x_qp = 0 zeroes the junction quasiparticle table at every bias
        env = environment_of("B1", x_qp=0.0)
        for phi in (0.1, 0.5):
            spec = diagonalize(b1_params, FluxBias(phi), n_levels=6)
            model = BiasModel(spec, b1_resonator, env)
            assert model.t1(mode, (Mechanism.QP_JUNCTION,)) == math.inf

    @pytest.mark.parametrize("mode", list(T1Mode), ids=lambda m: m.value)
    def test_trial_qc_eff_matches_a_model_built_there(self, mode, b1_params, b1_resonator):
        env = environment_of("B1")
        spec = diagonalize(b1_params, FluxBias(0.3), n_levels=6)
        model = BiasModel(spec, b1_resonator, env)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for q in (1.2e5, 4.5e5):
                # each reference on its own spectrum, so it shares no memoized data
                rebuilt = BiasModel(diagonalize(b1_params, FluxBias(0.3), n_levels=6),
                                    b1_resonator, replace(env, qc_eff=q)).t1(mode)
                assert model.t1(mode, qc_eff=q) == pytest.approx(rebuilt, rel=1e-12)

    @staticmethod
    def _count_builds(monkeypatch) -> list:
        """The mechanisms of every table built from here on, in build order."""
        import fluxt1.dynamics as dynamics

        built = []

        def counting(spec, res, env, mechanism):
            built.append(mechanism)
            return build_mechanism_table(spec, res, env, mechanism)

        monkeypatch.setattr(dynamics, "build_mechanism_table", counting)
        return built

    @pytest.mark.filterwarnings("ignore:decay fit residual")
    def test_model_at_another_exponent_builds_no_table(self, b1_params, b1_resonator,
                                                       monkeypatch):
        built = self._count_builds(monkeypatch)
        env = environment_of("B1")
        spec = diagonalize(b1_params, FluxBias(0.3), n_levels=6)
        model = BiasModel(spec, b1_resonator, env)
        before = model.t1(T1Mode.MULTILEVEL_POPULATION)
        assert sorted(built) == sorted(ANALYSIS_MECHANISMS)
        other = BiasModel(spec, b1_resonator, replace(env, epsilon=0.6))
        built.clear()
        moved = other.t1(T1Mode.MULTILEVEL_POPULATION)
        assert built == []
        assert other.p0 is model.p0
        fresh = BiasModel(diagonalize(b1_params, FluxBias(0.3), n_levels=6), b1_resonator,
                          replace(env, epsilon=0.6))
        assert moved == fresh.t1(T1Mode.MULTILEVEL_POPULATION)
        assert model.t1(T1Mode.MULTILEVEL_POPULATION) == before != moved

    def test_models_of_one_spectrum_share_tables_across_qc_eff_and_epsilon(
            self, b1_params, b1_resonator, monkeypatch):
        built = self._count_builds(monkeypatch)
        env = environment_of("B1")
        spec = diagonalize(b1_params, FluxBias(0.3), n_levels=6)
        models = [BiasModel(spec, b1_resonator, replace(env, **moved))
                  for moved in ({}, dict(qc_eff=1.2e5), dict(epsilon=-0.4),
                                dict(qc_eff=4.5e5, epsilon=0.9))]
        for model in models:
            build_rate_matrix(model.rates())
        assert sorted(built) == sorted(ANALYSIS_MECHANISMS)
        assert all(model.p0 is models[0].p0 for model in models)
        assert all(model.weights is models[0].weights for model in models)

    @pytest.mark.parametrize("changed", ["resonator", *(
        f.name for f in fields(Environment) if f.name not in ("qc_eff", "epsilon"))])
    def test_another_resonator_or_bath_builds_fresh_tables(self, changed, b1_params,
                                                           b1_resonator, monkeypatch):
        built = self._count_builds(monkeypatch)
        env, res = environment_of("B1"), b1_resonator
        spec = diagonalize(b1_params, FluxBias(0.3), n_levels=6)
        model = BiasModel(spec, res, env)
        build_rate_matrix(model.rates())
        if changed == "resonator":
            res = replace(res, kappa=2.0 * res.kappa)
        else:
            value = getattr(env, changed)
            env = replace(env, **{changed: 2.0 * value if value else 1e-9})
        built.clear()
        other = BiasModel(spec, res, env)
        build_rate_matrix(other.rates())
        assert sorted(built) == sorted(ANALYSIS_MECHANISMS)
        assert other.p0 is not model.p0

    @pytest.mark.parametrize("device", SHIPPED_DEVICES, ids=lambda path: path.stem)
    def test_model_at_another_exponent_has_the_rates_of_a_fresh_build(self, device):
        # a model on the same spectrum evaluates the shared exponent-free
        # pairs at its exponent: its pair rate and its table equal a table
        # built there, bit for bit
        dev = parse_device_file(str(device))
        env, res = dev.environment(), dev.resonator_params()
        start, stop, step = EPSILON_GRID
        exponents = [*np.arange(start, stop + step / 2, step).tolist(), -1.0, 1.0]
        capacitive = (Mechanism.CAPACITIVE,)
        for phi in (0.05, 0.27, 0.5):
            spec = diagonalize(dev.fluxonium_params(), FluxBias(phi), n_levels=6)
            build_rate_matrix(BiasModel(spec, res, env).rates(capacitive))
            for eps in exponents:
                moved = replace(env, epsilon=eps)
                fresh = build_mechanism_table(spec, res, moved,
                                              Mechanism.CAPACITIVE).table(moved)
                other = BiasModel(spec, res, moved)
                assert other.pair_rate(capacitive) == fresh[0, 1] + fresh[1, 0]
                assert np.array_equal(build_rate_matrix(other.rates(capacitive)).b,
                                      build_rate_matrix(fresh).b)
            if phi == 0.5:
                # the six parity-forbidden pairs, whose rates are rounding
                # residue here, were compared too
                off = fresh[~np.eye(spec.n_levels, dtype=bool)]
                assert np.count_nonzero(off < 1e-12 * off.max()) >= 12

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_probability_conservation_property(seed):
    rng = np.random.default_rng(seed)
    rates, _ = random_db_generator(rng)
    rm = build_rate_matrix(rates)
    assert max(rm.eigenvalues.real) == pytest.approx(0.0, abs=1e-9 * np.abs(rm.b).max())
    assert all(ev.real <= 1e-9 * np.abs(rm.b).max() for ev in np.atleast_1d(rm.eigenvalues))
    p0 = rng.dirichlet(np.ones(6))
    populations = evolve(rm, p0, np.logspace(-8, 0, 25))
    np.testing.assert_allclose(populations.sum(axis=1), 1.0, atol=1e-9)


# the mechanism selections of predict-t1's rows, and its multilevel modes
PREDICT_SELECTIONS = {
    **{name: (Mechanism(name),)
       for name in ("capacitive", "flux_noise", "charge_line", "flux_line", "purcell")},
    "total": ANALYSIS_MECHANISMS,
}
STACKED_MODES = (T1Mode.MULTILEVEL_POPULATION, T1Mode.MULTILEVEL_SIGNAL)
# members of predict-t1 stacks that fail on their own, at biases of the
# benchmark's seeded sweeps: (device, phi, selection) -> mode -> error
KNOWN_FAILURES = {
    ("b1", 0.36932908630238703, "purcell"): dict.fromkeys(
        STACKED_MODES, (NumericalError, "expected exactly one zero eigenvalue, found 2")),
    ("b3", 0.15774036825249207, "flux_noise"): {
        T1Mode.MULTILEVEL_SIGNAL: (FitError, "no least-squares decay time within a factor e^20")},
    ("a1", 0.24115643339926668, "flux_noise"): {
        T1Mode.MULTILEVEL_SIGNAL: (FitError, "no least-squares decay time within a factor e^20")},
    ("a1", 0.2458802923001324, "flux_noise"): {
        T1Mode.MULTILEVEL_SIGNAL: (FitError, "fitted amplitude")},
}


def selection_stack(models):
    """(members, rates, p0, weights) of every (model, predict-t1 selection)."""
    members = [(model, name) for model in models for name in PREDICT_SELECTIONS]
    return (members,
            np.stack([model.rates(PREDICT_SELECTIONS[name]) for model, name in members]),
            np.stack([model.p0 for model, _ in members]),
            np.stack([model.weights for model, _ in members]))


class TestStackedT1:
    @pytest.mark.parametrize("device", SHIPPED_DEVICES, ids=lambda path: path.stem)
    def test_each_member_is_its_own_stack_of_one(self, device):
        # 11 biases in [0, 0.5] plus the device's known failing ones, each of
        # predict-t1's six selections, both multilevel modes, in one call
        dev = parse_device_file(str(device))
        fluxes = [*np.linspace(0.0, 0.5, 11).tolist(),
                  *(phi for name, phi, _ in KNOWN_FAILURES if name == device.stem)]
        models = [BiasModel(diagonalize(dev.fluxonium_params(), FluxBias(phi), n_levels=6),
                            dev.resonator_params(), dev.environment()) for phi in fluxes]
        failed = np.full((len(models) * len(PREDICT_SELECTIONS), 2), None, dtype=object)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            members, rates, p0, weights = selection_stack(models)
            stacked = multilevel_t1(rates, p0, weights, STACKED_MODES, failed)
            for k, (model, name) in enumerate(members):
                phi = fluxes[k // len(PREDICT_SELECTIONS)]
                expected = KNOWN_FAILURES.get((device.stem, phi, name), {})
                for j, mode in enumerate(STACKED_MODES):
                    try:
                        alone = model.t1(mode, PREDICT_SELECTIONS[name])
                    except FluxT1Error as exc:
                        # the member fails with its own error, alone and stacked
                        assert type(failed[k, j]) is type(exc)
                        assert str(failed[k, j]) == str(exc)
                        assert math.isnan(stacked[k, j])
                        alone = exc
                    else:
                        assert failed[k, j] is None
                        assert stacked[k, j] == alone  # bit for bit
                    if mode in expected:
                        kind, message = expected[mode]
                        assert isinstance(alone, kind) and str(alone).startswith(message)

    def test_a_complex_member_leaves_real_neighbours_in_real_arithmetic(self, rng):
        cycle = np.array([[0.0, 100.0, 1.0], [1.0, 0.0, 100.0], [100.0, 1.0, 0.0]])
        real, _ = random_db_generator(rng, n=3)
        p0 = np.array([[0.2, 0.7, 0.1], [0.1, 0.8, 0.1]])
        with pytest.warns(ModelTraceWarning, match="complex eigenpair"):
            times, populations, reached = decays(np.stack([real, cycle]), p0)
            alone = [decays(rates[None], p[None]) for rates, p in zip((real, cycle), p0)]
        assert reached.all()
        for k, (t, pops, _) in enumerate(alone):
            np.testing.assert_array_equal(times[k], t[0])
            np.testing.assert_array_equal(populations[k], pops[0])

    def test_a_failing_solve_fails_only_its_member(self):
        stack = np.stack([np.diag([2.0, 4.0]), np.zeros((2, 2)), np.eye(2)])
        slots = np.full(3, None, dtype=object)
        inverse = dynamics._per_member(np.linalg.inv, stack, slots, "singular")
        assert isinstance(slots[1], NumericalError) and str(slots[1]).startswith("singular: ")
        assert slots[0] is None and slots[2] is None
        np.testing.assert_array_equal(inverse[0], np.diag([0.5, 0.25]))
        np.testing.assert_array_equal(inverse[2], np.eye(2))

    @pytest.mark.parametrize("mode", STACKED_MODES, ids=lambda m: m.value)
    def test_lockstep_extraction_is_each_record_alone(self, mode):
        dev = parse_device_file(str(SHIPPED_DEVICES[1]))
        env, res = dev.environment(epsilon=0.25), dev.resonator_params()
        provider = CachedSpectrumProvider(dev.fluxonium_params())
        rng = np.random.default_rng(5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = [T1Record(phi_ext=phi, t1=QceffInverter(provider(phi), res, env, mode)
                                .predict_t1(2.2e5 * rng.lognormal(0.0, 0.35)))
                       for phi in np.linspace(0.04, 0.5, 8).tolist()]
            dist = extract_qceff_dataset(T1Dataset.from_records(records), provider, res, env,
                                         mode)
            alone = [QceffInverter(provider(r.phi_ext), res, env, mode).invert(r.t1)
                     for r in records]
        for entry, q in zip(dist.entries, alone):
            assert abs(math.log10(entry.qceff) - math.log10(q)) <= ROOT_XTOL


class TestRisingRoot:
    ROOTS = np.array([0.3, -2.0, 7.5, 40.0, -40.0, 0.0, 1.0, 1.0 / 3.0])
    U0 = np.array([0.0, 0.5, 1.0, 0.0, 0.0, 0.0, 1.0 + 3e-13, 2.0])

    @classmethod
    def g(cls, u, members):
        """Rising through zero at ROOTS, as a step for member 7, whose bracket
        only bisection-like steps shrink; member 2 fails above u = 5."""
        offset = u - cls.ROOTS[members]
        value = np.where(members == 7, np.sign(offset), np.sinh(offset))
        return np.where((members == 2) & (u > 5.0), np.nan, value)

    @staticmethod
    def traced(g, seen):
        def wrapped(u, members):
            for k, v in zip(members.tolist(), u.tolist()):
                seen.setdefault(k, []).append(v)
            return g(u, members)
        return wrapped

    def test_brackets_widen_as_before_and_members_freeze_alone(self):
        step, lo, hi, xtol = 0.05, -10.0, 10.0, 1e-12
        seen = {}
        roots = rising_root(self.traced(self.g, seen), self.U0, step, lo, hi, xtol)
        for k, u0 in enumerate(self.U0.tolist()):
            members = np.array([k])
            g0 = self.g(np.array([u0]), members)[0]
            # the bracket: u0, then u0 + step 2^j toward the sign change, clipped
            toward, reach, expected = (1.0 if g0 < 0.0 else -1.0), step, [u0]
            while g0 != 0.0:
                outer = min(max(u0 + toward * reach, lo), hi)
                expected.append(outer)
                value = self.g(np.array([outer]), members)[0]
                if not toward * value < 0.0 or outer in (lo, hi):
                    break
                reach *= 2.0
            assert seen[k][:len(expected)] == expected
            # alone, the member evaluates the same points and finds the same root
            alone_seen = {}
            (alone,) = rising_root(self.traced(lambda u, m: self.g(u, members), alone_seen),
                                   np.array([u0]), step, lo, hi, xtol)
            assert alone_seen[0] == seen[k]
            if abs(self.ROOTS[k]) > hi or k == 2:
                assert math.isnan(alone) and math.isnan(roots[k])
            else:
                assert roots[k] == alone
                assert abs(alone - self.ROOTS[k]) <= xtol + 4 * np.finfo(float).eps

    def test_a_step_per_member_is_each_member_alone_with_its_own_step(self):
        steps = np.array([0.05, 1e-6, 0.3, 2.0, 0.01, 0.7, 1e-13, 0.2])
        lo, hi, xtol = -10.0, 10.0, 1e-12
        seen = {}
        roots = rising_root(self.traced(self.g, seen), self.U0, steps, lo, hi, xtol)
        for k, (u0, step) in enumerate(zip(self.U0.tolist(), steps.tolist())):
            members, alone_seen = np.array([k]), {}
            (alone,) = rising_root(self.traced(lambda u, m: self.g(u, members), alone_seen),
                                   np.array([u0]), step, lo, hi, xtol)
            assert alone_seen[0] == seen[k]
            assert (math.isnan(alone) and math.isnan(roots[k])) or roots[k] == alone

    def test_a1_sweep_stack_takes_few_gradient_evaluations(self, monkeypatch):
        # predict_sweep's a1 grid at seed 11: 21 biases x 6 selections x 2 modes
        dev = parse_device_file(str(SHIPPED_DEVICES[0]))
        offset, step = 0.12857020276919962, 0.5 / 21
        fluxes = np.linspace(offset * step, (20 + offset) * step, 21).tolist()
        models = [BiasModel(diagonalize(dev.fluxonium_params(), FluxBias(phi), n_levels=6),
                            dev.resonator_params(), dev.environment()) for phi in fluxes]
        counts, root = [], dynamics.rising_root

        def counting(g, u0, *args):
            n = np.zeros(np.size(u0), dtype=int)

            def counted(u, members):
                np.add.at(n, members, 1)
                return g(u, members)

            u = root(counted, u0, *args)
            counts.extend(n.tolist())
            return u

        monkeypatch.setattr(dynamics, "rising_root", counting)
        failed = np.full((len(models) * len(PREDICT_SELECTIONS), 2), None, dtype=object)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, rates, p0, weights = selection_stack(models)
            multilevel_t1(rates, p0, weights, STACKED_MODES, failed)
        assert len(counts) == 252
        assert np.mean(counts) <= 9.0
        assert max(counts) <= 20

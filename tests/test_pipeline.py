"""Binning, exclusion, quality-factor inversion, exponent and noise fits."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxt1.dynamics import BiasModel, T1Mode, predicted_t1
from fluxt1.errors import DataError, FitError, ModelTraceWarning
from fluxt1.hamiltonian import FluxBias, diagonalize, flux_dispersion
from fluxt1.loss import BACKGROUND_MECHANISMS, Environment
from fluxt1.pipeline import (
    CachedSpectrumProvider,
    DephasingDataset,
    DephasingRecord,
    QceffDistribution,
    QceffEntry,
    QceffInverter,
    QubitAnalysisInput,
    T1Dataset,
    T1Record,
    bin_average,
    exclusion_filter,
    extract_flux_noise_amplitude,
    extract_qceff_dataset,
    fit_epsilon_global,
    invert_stack,
    summarize,
    two_level_qceff,
)

from conftest import environment_of, params_of, resonator_of
from reference import two_level_qceff_closed_form, two_level_total_rate


def records_from(pairs):
    return tuple(T1Record(phi_ext=0.2, t1=t1, omega01=f) for f, t1 in pairs)


class TestIngest:
    def test_error_bar_rule_drops_records(self):
        ds = T1Dataset.from_records([
            T1Record(phi_ext=0.1, t1=100e-6, t1_err=50e-6),
            T1Record(phi_ext=0.2, t1=100e-6, t1_err=300e-6),  # err > 2 t1
        ])
        assert len(ds) == 1
        assert ds.n_ingest_dropped == 1

    def test_boundary_not_dropped(self):
        ds = T1Dataset.from_records([T1Record(phi_ext=0.1, t1=1e-4, t1_err=2e-4)])
        assert len(ds) == 1


class TestBinAverage:
    def test_widely_spaced_records_pass_through(self):
        ds = T1Dataset(records=records_from([(1.00e9, 1e-4), (1.02e9, 2e-4),
                                             (1.04e9, 3e-4)]))
        out = bin_average(ds, bin_width=8e6)
        assert [r.t1 for r in out.records] == [1e-4, 2e-4, 3e-4]

    def test_same_bin_records_average(self):
        ds = T1Dataset(records=records_from([(1.000e9, 100e-6), (1.002e9, 200e-6)]))
        out = bin_average(ds, bin_width=8e6)
        assert len(out) == 1
        assert out.records[0].t1 == pytest.approx(150e-6, rel=1e-12)
        assert out.records[0].omega01 == pytest.approx(1.001e9, rel=1e-12)
        assert out.records[0].n_binned == 2

    def test_synthetic_count_reduction(self, rng):
        # a cluster of oversampled points collapses to its occupied bins
        freqs = np.concatenate([
            rng.uniform(1.000e9, 1.016e9, size=40),   # dense: spans 2 bins
            np.arange(2e9, 3.0e9, 20e6),               # sparse: 50 singleton bins
        ])
        ds = T1Dataset(records=records_from([(f, 1e-4) for f in freqs]))
        out = bin_average(ds, bin_width=8e6)
        assert len(out) < len(ds)
        sparse = [r for r in out.records if r.omega01 >= 2e9]
        assert len(sparse) == 50

    def test_idempotent(self, rng):
        freqs = rng.uniform(0.5e9, 2e9, size=60)
        ds = T1Dataset(records=records_from([(f, float(t)) for f, t in
                                             zip(freqs, rng.uniform(1e-5, 1e-3, 60))]))
        once = bin_average(ds)
        twice = bin_average(once)
        assert [(r.omega01, r.t1) for r in twice.records] == \
            [(r.omega01, r.t1) for r in once.records]

    def test_requires_frequency(self):
        ds = T1Dataset(records=(T1Record(phi_ext=0.3, t1=1e-4),))
        with pytest.raises(ValueError):
            bin_average(ds)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(0.1e9, 6e9), st.floats(1e-6, 1e-3)),
                min_size=1, max_size=30))
def test_bin_average_idempotence_property(pairs):
    ds = T1Dataset(records=records_from(pairs))
    once = bin_average(ds)
    twice = bin_average(once)
    assert [(r.omega01, r.t1, r.n_binned) for r in twice.records] == \
        [(r.omega01, r.t1, r.n_binned) for r in once.records]


class TestExclusionFilter:
    def setup_method(self):
        self.params = params_of("B1")
        self.res = resonator_of("B1")
        self.provider = CachedSpectrumProvider(self.params, n_levels=6)

    def make_ds(self, t1s, phi=0.4):
        return T1Dataset(records=tuple(
            T1Record(phi_ext=phi, t1=t, omega01=1e9) for t in t1s))

    def test_nothing_dropped_without_background(self):
        env = Environment(a_phi=0.0, c_drive=0.0, m_drive=0.0, qc_eff=3e5)
        res = resonator_of("B1")
        res = type(res)(omega_res=res.omega_res, g=0.0, kappa=res.kappa)
        ds = self.make_ds([1e-5, 1e-4, 1e-3])
        kept, dropped = exclusion_filter(ds, self.provider, env, res)
        assert len(kept) == 3 and len(dropped) == 0

    def test_threshold_arithmetic(self):
        env = environment_of("B1")
        spec = self.provider(0.4)
        bg = two_level_total_rate(spec, self.res, env, BACKGROUND_MECHANISMS)
        # measured rate 5x the background prediction: ratio 0.2 > 0.1 -> drop
        ds = self.make_ds([1.0 / (5.0 * bg)])
        kept, dropped = exclusion_filter(ds, self.provider, env, self.res, threshold=0.1)
        assert len(dropped) == 1 and len(kept) == 0
        # measured rate 20x the prediction: ratio 0.05 < 0.1 -> keep
        ds = self.make_ds([1.0 / (20.0 * bg)])
        kept, dropped = exclusion_filter(ds, self.provider, env, self.res, threshold=0.1)
        assert len(kept) == 1 and len(dropped) == 0

    def test_lowering_threshold_never_keeps_more(self):
        env = environment_of("B1")
        t1s = np.logspace(-5.2, -2.8, 12)
        ds = self.make_ds(list(t1s))
        kept_counts = []
        for threshold in (0.4, 0.2, 0.1, 0.05, 0.02):
            kept, _ = exclusion_filter(ds, self.provider, env, self.res,
                                       threshold=threshold)
            kept_counts.append(len(kept))
        assert all(a >= b for a, b in zip(kept_counts, kept_counts[1:]))

    def test_purcell_proximal_spectra_drop_more(self):
        # identical noise parameters and capacitive-limited synthetic data:
        # circuits whose transitions run close to their resonator (and whose
        # splittings collapse at half flux) shed more points
        from fluxt1.loss import Mechanism

        env = Environment(a_phi=(5.0e-6) ** 2, qc_eff=2.5e5, epsilon=0.25)
        kept_counts = {}
        for qubit in ("A1", "A4", "A5"):
            provider = CachedSpectrumProvider(params_of(qubit), n_levels=6)
            res = resonator_of(qubit)
            records = []
            for phi in np.linspace(0.05, 0.5, 20):
                spec = provider(phi)
                cap = BiasModel(spec, res, env).pair_rate((Mechanism.CAPACITIVE,))
                records.append(T1Record(phi_ext=phi, t1=1.0 / cap,
                                        omega01=spec.transition_frequency(0, 1)))
            ds = T1Dataset(records=tuple(records), qubit_id=qubit)
            kept, _ = exclusion_filter(ds, provider, env, res)
            kept_counts[qubit] = len(kept)
        assert kept_counts["A4"] < kept_counts["A1"]
        assert kept_counts["A5"] < kept_counts["A1"]


class TestQceffExtraction:
    def test_round_trip(self, b1_half_flux_spectrum, b1_resonator):
        env = environment_of("B1")
        inverter = QceffInverter(b1_half_flux_spectrum, b1_resonator, env,
                                 mode=T1Mode.MULTILEVEL_SIGNAL)
        for q_true in (1.0e5, 2.5e5, 1.0e6):
            t1 = inverter.predict_t1(q_true)
            assert inverter.invert(t1) == pytest.approx(q_true, rel=1e-3)

    @pytest.mark.parametrize("qubit", ["B1", "A3"])
    def test_two_level_inversion_is_the_closed_form_bit_for_bit(self, qubit):
        # the reference route builds its own tables apart from the inverter
        # and does the same arithmetic, so the two agree exactly
        params, res, env = params_of(qubit), resonator_of(qubit), environment_of(qubit)
        for phi in (0.1, 0.27, 0.5):
            spec = diagonalize(params, FluxBias(phi), n_levels=6)
            inverter = QceffInverter(spec, res, env, mode=T1Mode.TWO_LEVEL)
            t1 = inverter.predict_t1(2.5e5)
            assert inverter.invert(t1) == two_level_qceff_closed_form(t1, spec, res, env)

    def test_monotone_in_measured_t1(self, b1_half_flux_spectrum, b1_resonator):
        env = environment_of("B1")
        inverter = QceffInverter(b1_half_flux_spectrum, b1_resonator, env)
        base = inverter.predict_t1(2.0e5)
        extracted = [inverter.invert(t) for t in (0.8 * base, base, 1.25 * base)]
        assert extracted[0] < extracted[1] < extracted[2]

    def test_dataset_extraction_recovers_each_entry(self, b1_params, b1_resonator):
        env = environment_of("B1")
        provider = CachedSpectrumProvider(b1_params, n_levels=6)
        records = []
        for phi in (0.1, 0.3, 0.5):
            inv = QceffInverter(provider(phi), b1_resonator, env)
            records.append(T1Record(phi_ext=phi, t1=inv.predict_t1(2.2e5),
                                    omega01=provider(phi).transition_frequency(0, 1)))
        ds = T1Dataset(records=tuple(records), qubit_id="B1")
        dist = extract_qceff_dataset(ds, provider, b1_resonator, env)
        assert [e.freq for e in dist.entries] == [r.omega01 for r in records]
        for e in dist.entries:
            assert e.qceff == pytest.approx(2.2e5, rel=1e-3)


    @pytest.mark.parametrize("mode", list(T1Mode), ids=lambda m: m.value)
    def test_empty_dataset_gives_empty_distribution(self, mode, b1_params, b1_resonator):
        # what extract-qceff inverts when the exclusion filter keeps nothing
        dist = extract_qceff_dataset(T1Dataset(records=(), qubit_id="B1"),
                                     CachedSpectrumProvider(b1_params), b1_resonator,
                                     environment_of("B1"), mode=mode)
        assert dist.entries == ()


class TestOneModelPath:
    @pytest.mark.parametrize("qubit", ["A1", "A3", "B1", "B3"])
    @pytest.mark.parametrize("mode", list(T1Mode), ids=lambda m: m.value)
    def test_predicted_t1_is_the_inverter_model_bit_for_bit(self, qubit, mode):
        params, res, env = params_of(qubit), resonator_of(qubit), environment_of(qubit)
        provider = CachedSpectrumProvider(params, n_levels=6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for phi in (0.1, 0.27, 0.5):
                spec = provider(phi)
                direct = predicted_t1(params, res, env, FluxBias(phi), mode=mode)
                inverted = QceffInverter(spec, res, env, mode).predict_t1(env.qc_eff)
                assert direct == inverted

    def test_benchmark_hooks_resolve(self):
        # the benchmark's tracer rebinds these module-level names and replaces
        # these methods on the class itself, from outside the package
        import importlib
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        loader = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(spans)
        for module_name, attr in spans.FUNCTIONS:
            assert callable(getattr(importlib.import_module(module_name), attr, None)), \
                (module_name, attr)
        assert set(spans.METHODS) == {"invert", "predict_t1"}
        assert all(attr in QceffInverter.__dict__ for attr in spans.METHODS)

class TestInversionContract:
    @pytest.mark.parametrize("mode", list(T1Mode), ids=lambda m: m.value)
    def test_t1_beyond_background_limit_raises_fit_error(
            self, mode, b1_half_flux_spectrum, b1_resonator):
        env = environment_of("B1")
        inverter = QceffInverter(b1_half_flux_spectrum, b1_resonator, env, mode=mode)
        t1_limit = 1.0 / two_level_total_rate(b1_half_flux_spectrum, b1_resonator, env,
                                              BACKGROUND_MECHANISMS)
        with pytest.raises(FitError):
            inverter.invert(2.0 * t1_limit)

    @staticmethod
    def _counted_round_trip(mode, phi, params, res, monkeypatch):
        """(inverted qc_eff, model evaluations) of one round trip at 2.5e5."""
        import fluxt1.pipeline as pipeline

        spec = diagonalize(params, FluxBias(phi), n_levels=6)
        inverter = QceffInverter(spec, res, environment_of("B1"), mode=mode)
        t1 = inverter.predict_t1(2.5e5)
        model, calls = pipeline.multilevel_t1, []

        def counted(rates, *args, **kwargs):
            calls.extend(rates)  # one model evaluation per member of the stack
            return model(rates, *args, **kwargs)

        monkeypatch.setattr(pipeline, "multilevel_t1", counted)
        return inverter.invert(t1), len(calls)

    @pytest.mark.parametrize("phi", (0.27, 0.5))
    def test_two_level_round_trip_evaluates_no_model(self, phi, b1_params, b1_resonator,
                                                     monkeypatch):
        q, n_calls = self._counted_round_trip(T1Mode.TWO_LEVEL, phi, b1_params, b1_resonator,
                                              monkeypatch)
        assert q == pytest.approx(2.5e5, rel=1e-12)
        assert n_calls == 0

    @pytest.mark.parametrize("mode", [T1Mode.MULTILEVEL_POPULATION, T1Mode.MULTILEVEL_SIGNAL],
                             ids=lambda m: m.value)
    @pytest.mark.parametrize("phi", (0.27, 0.5))
    def test_multilevel_round_trip_takes_at_most_20_model_evaluations(
            self, mode, phi, b1_params, b1_resonator, monkeypatch):
        q, n_calls = self._counted_round_trip(mode, phi, b1_params, b1_resonator, monkeypatch)
        assert q == pytest.approx(2.5e5, rel=1e-3)
        assert 1 <= n_calls <= 20

    @pytest.mark.parametrize("beyond", ["above_1e12", "below_1"])
    def test_two_level_closed_form_outside_bounds_raises_fit_error(
            self, beyond, b1_half_flux_spectrum, b1_resonator):
        spec, env = b1_half_flux_spectrum, environment_of("B1")
        t1_limit = 1.0 / two_level_total_rate(spec, b1_resonator, env, BACKGROUND_MECHANISMS)
        # a t1 just short of the background-only limit, or far below any model t1
        t1 = t1_limit * (1.0 - 1e-12) if beyond == "above_1e12" else 1e-12
        closed = two_level_qceff_closed_form(t1, spec, b1_resonator, env)
        assert closed > 1e12 if beyond == "above_1e12" else closed < 1.0
        inverter = QceffInverter(spec, b1_resonator, env, mode=T1Mode.TWO_LEVEL)
        with pytest.raises(FitError, match=r"no qc_eff in \[1e0, 1e12\] reproduces"):
            inverter.invert(t1)

    @pytest.mark.parametrize("mode", [T1Mode.MULTILEVEL_POPULATION, T1Mode.MULTILEVEL_SIGNAL],
                             ids=lambda m: m.value)
    @pytest.mark.parametrize("phi", (0.04, 0.2444, 0.3, 0.5))
    def test_multilevel_round_trip_reaches_root_tolerance(self, mode, phi):
        # the data come from an inverter with another reference qc_eff, built
        # on its own spectrum so the two share no memoized data, as when
        # extract-qceff reads T1s simulated elsewhere; the model T1 must be
        # smooth enough in qc_eff that the root find, not fit scatter, sets
        # the error (ROOT_XTOL decades is ~2.3e-12 relative)
        res = resonator_of("A3")
        source, inverter = (
            QceffInverter(diagonalize(params_of("A3"), FluxBias(phi), n_levels=6), res,
                          environment_of("A3", qc_eff=q), mode=mode)
            for q in (2.2e5, 3.0e5))
        for q_true in (1.4e5, 2.2e5, 3.7e5):
            assert inverter.invert(source.predict_t1(q_true)) == pytest.approx(q_true, rel=1e-11)


    @pytest.mark.filterwarnings("ignore:decay fit residual")
    def test_stack_of_models_retaining_different_level_counts(self, b1_params, b1_resonator):
        # a multilevel stack sums one N x N table per member, so its members
        # retain one number of levels; each member alone still inverts
        env = environment_of("B1")
        models = [QceffInverter(diagonalize(b1_params, FluxBias(phi), n_levels=n),
                                b1_resonator, env)
                  for phi, n in ((0.2, 6), (0.3, 5), (0.4, 6))]
        t1 = [model.predict_t1(2.5e5) for model in models]
        with pytest.raises(ValueError, match="one number of levels"):
            invert_stack(models, t1, [env.epsilon], T1Mode.MULTILEVEL_SIGNAL)
        for model, t in zip(models, t1):
            assert model.invert(t) == pytest.approx(2.5e5, rel=1e-11)

    @pytest.mark.filterwarnings("ignore:decay fit residual")
    @pytest.mark.parametrize("mode", list(T1Mode), ids=lambda m: m.value)
    def test_each_exponent_is_a_one_exponent_stack_bit_for_bit(self, mode, b1_params,
                                                               b1_resonator):
        # the models' own exponent is not read: the column of each grid point
        # is the inversion of models built at that point, exactly
        provider = CachedSpectrumProvider(b1_params, n_levels=6)
        carried = environment_of("B1", epsilon=0.6)
        biases = (0.1, 0.27, 0.5)
        t1 = [BiasModel(provider(phi), b1_resonator, carried).t1(mode, qc_eff=2.5e5)
              for phi in biases]
        grid = np.array([-0.5, 0.0, 0.25])
        stacked = invert_stack([BiasModel(provider(phi), b1_resonator, carried)
                                for phi in biases], t1, grid, mode)
        assert stacked.shape == (len(biases), grid.size)
        for e, eps in enumerate(grid.tolist()):
            env = replace(carried, epsilon=eps)
            alone = invert_stack([BiasModel(provider(phi), b1_resonator, env)
                                  for phi in biases], t1, [eps], mode)
            assert stacked[:, e].tolist() == alone[:, 0].tolist()

    @staticmethod
    def _warning_round_trip(category, message, spec, res, monkeypatch):
        """One signal-mode round trip at 2.5e5 whose every model evaluation
        first warns ``message``."""
        import fluxt1.pipeline as pipeline

        inverter = QceffInverter(spec, res, environment_of("B1"))
        t1 = inverter.predict_t1(2.5e5)
        model = pipeline.multilevel_t1

        def warning(*args, **kwargs):
            warnings.warn(message, category)
            return model(*args, **kwargs)

        monkeypatch.setattr(pipeline, "multilevel_t1", warning)
        return inverter.invert(t1)

    def test_other_warnings_of_a_model_evaluation_propagate(
            self, b1_half_flux_spectrum, b1_resonator, monkeypatch):
        with pytest.warns(RuntimeWarning, match="overflow encountered in a trial model"):
            self._warning_round_trip(RuntimeWarning, "overflow encountered in a trial model",
                                     b1_half_flux_spectrum, b1_resonator, monkeypatch)

    TRACE_MESSAGES = [
        "decay fit residual exceeds the model-signal gate (0.001 of amplitude)",
        "generator has a complex eigenpair (mixed-temperature baths can drive steady-state "
        "cycles); keeping complex arithmetic",
        "probability drifted by up to 2.000e-09; renormalizing rows",
    ]

    @pytest.mark.parametrize("message", TRACE_MESSAGES)
    def test_trace_warnings_of_trial_models_are_silenced(
            self, message, b1_half_flux_spectrum, b1_resonator, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = self._warning_round_trip(ModelTraceWarning, message, b1_half_flux_spectrum,
                                         b1_resonator, monkeypatch)
        assert q == pytest.approx(2.5e5, rel=1e-11)

    def test_a_plain_user_warning_with_a_trace_message_propagates(
            self, b1_half_flux_spectrum, b1_resonator, monkeypatch):
        # the trial models' warnings are silenced by their type, not their wording
        with pytest.warns(UserWarning, match="decay fit residual exceeds") as record:
            q = self._warning_round_trip(UserWarning, self.TRACE_MESSAGES[0],
                                         b1_half_flux_spectrum, b1_resonator, monkeypatch)
        assert {type(w.message) for w in record} == {UserWarning}
        assert q == pytest.approx(2.5e5, rel=1e-11)

    def test_first_failing_member_raises(self, b1_half_flux_spectrum, b1_resonator):
        env = environment_of("B1")
        model = QceffInverter(b1_half_flux_spectrum, b1_resonator, env)
        limit = 1.0 / two_level_total_rate(b1_half_flux_spectrum, b1_resonator, env,
                                           BACKGROUND_MECHANISMS)
        good = model.predict_t1(2.5e5)
        # one exponent: the message names the record's bias alone
        with pytest.raises(FitError, match=fr"^record at phi_ext = 0\.5: no qc_eff .* "
                                           f"reproduces t1 = {2.0 * limit:.3e} s"):
            invert_stack([model] * 4, [good, 2.0 * limit, 3.0 * limit, good], [env.epsilon])


class TestPipelineDeterminism:
    def test_repeated_extraction_is_bit_identical(self, b1_params, b1_resonator):
        env = environment_of("B1")
        provider = CachedSpectrumProvider(b1_params, n_levels=6)
        records = []
        for phi in (0.15, 0.40):
            inv = QceffInverter(provider(phi), b1_resonator, env)
            records.append(T1Record(phi_ext=phi, t1=inv.predict_t1(1.9e5),
                                    omega01=provider(phi).transition_frequency(0, 1)))
        ds = T1Dataset(records=tuple(records), qubit_id="B1")
        first = extract_qceff_dataset(ds, provider, b1_resonator, env)
        second = extract_qceff_dataset(ds, provider, b1_resonator, env)
        assert [e.qceff for e in first.entries] == [e.qceff for e in second.entries]

    def test_population_mode_round_trip(self, b1_half_flux_spectrum, b1_resonator):
        env = environment_of("B1")
        inverter = QceffInverter(b1_half_flux_spectrum, b1_resonator, env,
                                 mode=T1Mode.MULTILEVEL_POPULATION)
        t1 = inverter.predict_t1(2.0e5)
        assert inverter.invert(t1) == pytest.approx(2.0e5, rel=1e-3)


class TestEpsilonFit:
    def _synthetic_inputs(self, epsilon, qceffs=(1.8e5, 2.6e5, 3.4e5)):
        inputs = []
        for k, q_true in enumerate(qceffs):
            qubit = ("A1", "B1", "B3")[k]
            params = params_of(qubit)
            res = resonator_of(qubit)
            env = environment_of(qubit, qc_eff=q_true, epsilon=epsilon)
            provider = CachedSpectrumProvider(params, n_levels=6)
            records = []
            for phi in np.linspace(0.05, 0.5, 10):
                spec = provider(phi)
                inv = QceffInverter(spec, res, env, mode=T1Mode.TWO_LEVEL)
                records.append(T1Record(phi_ext=phi, t1=inv.predict_t1(q_true),
                                        omega01=spec.transition_frequency(0, 1)))
            inputs.append(QubitAnalysisInput(
                dataset=T1Dataset(records=tuple(records), qubit_id=qubit),
                spec_provider=provider, res=res, env=env))
        return inputs

    def test_recovers_generating_exponent(self):
        inputs = self._synthetic_inputs(epsilon=0.25)
        result = fit_epsilon_global(inputs, mode=T1Mode.TWO_LEVEL, grid=np.linspace(-1, 1, 41))
        assert result.epsilon == pytest.approx(0.25, abs=1e-12)

    def test_recovers_zero_for_flat_data(self):
        inputs = self._synthetic_inputs(epsilon=0.0)
        result = fit_epsilon_global(inputs, mode=T1Mode.TWO_LEVEL, grid=np.linspace(-1, 1, 41))
        assert result.epsilon == pytest.approx(0.0, abs=1e-12)

    def test_variance_curve_has_grid_shape(self):
        inputs = self._synthetic_inputs(epsilon=0.25)
        grid = np.linspace(0.0, 0.5, 11)
        result = fit_epsilon_global(inputs, mode=T1Mode.TWO_LEVEL, grid=grid)
        assert result.pooled_variance.shape == grid.shape
        assert result.pooled_variance.min() == result.pooled_variance[
            np.argmin(np.abs(grid - 0.25))]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid is empty"):
            fit_epsilon_global(self._synthetic_inputs(epsilon=0.25), grid=np.array([]))

    def test_qubit_without_records_is_a_data_error_naming_it(self):
        inputs = self._synthetic_inputs(epsilon=0.25)
        inputs[0] = replace(inputs[0], dataset=replace(inputs[0].dataset, records=()))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match=r"\['A1'\]"):
                fit_epsilon_global(inputs, grid=np.array([0.0, 0.25]))

    @staticmethod
    def _count_builds(monkeypatch):
        """(exponents of the Environments built, BiasModels built in the pipeline)."""
        import fluxt1.pipeline as pipeline

        envs, models = [], []
        check, model = Environment.__post_init__, pipeline.BiasModel
        monkeypatch.setattr(Environment, "__post_init__",
                            lambda env: envs.append(env.epsilon) or check(env))
        monkeypatch.setattr(pipeline, "BiasModel",
                            lambda *args: models.append(args) or model(*args))
        return envs, models

    def test_one_environment_per_qubit_and_exponent(self, monkeypatch):
        inputs = self._synthetic_inputs(epsilon=0.25)
        envs, models = self._count_builds(monkeypatch)
        grid = np.linspace(0.0, 0.5, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # decay-fit residual gate
            fit_epsilon_global(inputs, mode=T1Mode.MULTILEVEL_POPULATION, grid=grid)
        # one per exponent for each qubit; the inverters read the qubit's own
        assert len(envs) == len(inputs) * grid.size
        # one exponent-free model per record reads the closed-form starts at
        # every exponent; the root finds of each exponent read one model per
        # record built at that exponent
        n_records = sum(len(qi.dataset) for qi in inputs)
        assert len(models) == n_records + n_records * grid.size

    def test_two_level_builds_no_environment_or_model_per_exponent(self, monkeypatch):
        inputs = self._synthetic_inputs(epsilon=0.25)
        envs, models = self._count_builds(monkeypatch)
        fit_epsilon_global(inputs, mode=T1Mode.TWO_LEVEL, grid=np.linspace(0.0, 0.5, 5))
        # one model per record serves every exponent
        assert envs == []
        assert len(models) == sum(len(qi.dataset) for qi in inputs)

    def test_variance_curve_matches_fresh_extraction_per_exponent(self):
        inputs = self._synthetic_inputs(epsilon=0.25)[:2]
        grid = np.array([-0.5, 0.25, 0.75])
        result = fit_epsilon_global(inputs, mode=T1Mode.MULTILEVEL_POPULATION, grid=grid)
        for eps, variance in zip(grid, result.pooled_variance):
            pooled = []
            for qi in inputs:
                env = replace(qi.env, epsilon=float(eps))
                values = extract_qceff_dataset(qi.dataset, qi.spec_provider, qi.res, env,
                                               mode=T1Mode.MULTILEVEL_POPULATION).values()
                pooled.extend(np.log10(values) - math.log10(float(np.mean(values))))
            assert variance == float(np.var(pooled))


    def test_two_level_variance_curve_matches_fresh_extraction_per_exponent(self):
        inputs = self._synthetic_inputs(epsilon=0.25)
        # exact -1 and 0.5, where numpy's ** takes its exact shortcuts
        grid = np.linspace(-1.0, 1.0, 9)
        result = fit_epsilon_global(inputs, mode=T1Mode.TWO_LEVEL, grid=grid)
        records = [(qi, r) for qi in inputs for r in qi.dataset.records]
        q = two_level_qceff([BiasModel(qi.spec_provider(r.phi_ext), qi.res, qi.env)
                             for qi, r in records], [r.t1 for _, r in records], grid)
        for k, (eps, variance) in enumerate(zip(grid.tolist(), result.pooled_variance)):
            for cell, (qi, r) in zip(q[:, k].tolist(), records):
                assert cell == two_level_qceff_closed_form(
                    r.t1, qi.spec_provider(r.phi_ext), qi.res, replace(qi.env, epsilon=eps))
            pooled = []
            for qi in inputs:
                env = replace(qi.env, epsilon=eps)
                values = extract_qceff_dataset(qi.dataset, qi.spec_provider, qi.res, env,
                                               mode=T1Mode.TWO_LEVEL).values()
                pooled.extend(np.log10(values) - math.log10(float(np.mean(values))))
            assert variance == float(np.var(pooled))

    def test_two_level_raises_first_failing_cell_exponent_by_exponent(self):
        inputs = self._synthetic_inputs(epsilon=0.25)
        grid = np.array([-0.5, 0.25, 0.75])
        # stack position 9 (A1's last record, Phi = 0.5, f01 ~ 0.36 GHz) gets
        # the t1 whose closed form is 0.5 at the last exponent, and above 1 at
        # the others; stack position 10 (B1's first record) a t1 beyond its
        # background-only limit, so it fails at every exponent
        a1, b1 = inputs[0], inputs[1]
        late = a1.dataset.records[-1]
        spec = a1.spec_provider(late.phi_ext)
        env = replace(a1.env, epsilon=0.75)
        background = two_level_total_rate(spec, a1.res, env, BACKGROUND_MECHANISMS)
        q0 = two_level_qceff_closed_form(late.t1, spec, a1.res, env)
        late = replace(late, t1=1.0 / (background + q0 * (1.0 / late.t1 - background) / 0.5))
        for eps in grid[:-1].tolist():
            assert two_level_qceff_closed_form(late.t1, spec, a1.res,
                                               replace(a1.env, epsilon=eps)) > 1.0
        early = b1.dataset.records[0]
        limit = 1.0 / two_level_total_rate(b1.spec_provider(early.phi_ext), b1.res, b1.env,
                                           BACKGROUND_MECHANISMS)
        early = replace(early, t1=2.0 * limit)
        inputs[0] = replace(a1, dataset=replace(a1.dataset,
                                                records=a1.dataset.records[:-1] + (late,)))
        inputs[1] = replace(b1, dataset=replace(b1.dataset,
                                                records=(early,) + b1.dataset.records[1:]))
        # the first exponent fails first, at the later record
        with pytest.raises(FitError) as raised:
            fit_epsilon_global(inputs, mode=T1Mode.TWO_LEVEL, grid=grid)
        assert str(raised.value) == (
            f"record at phi_ext = {float(early.phi_ext)!r}, epsilon = -0.5: "
            f"no qc_eff in [1e0, 1e12] reproduces t1 = {early.t1:.3e} s "
            f"(the non-capacitive channels alone give t1 = {limit:.3e} s)")
        # without it, the earlier record fails at the last exponent
        inputs[1] = b1
        with pytest.raises(FitError) as raised:
            fit_epsilon_global(inputs, mode=T1Mode.TWO_LEVEL, grid=grid)
        assert str(raised.value) == (
            f"record at phi_ext = {float(late.phi_ext)!r}, epsilon = 0.75: "
            f"no qc_eff in [1e0, 1e12] reproduces t1 = {late.t1:.3e} s "
            "(the closed form gives qc_eff = 5.000e-01)")

    @pytest.mark.filterwarnings("ignore:decay fit residual")
    def test_multilevel_raises_first_failing_cell_exponent_by_exponent(self):
        # population mode: in signal mode B1's record at Phi = 0.25, where
        # level 1 has no readout contrast, fails the decay fit at every
        # exponent and would fail first
        mode = T1Mode.MULTILEVEL_POPULATION
        inputs = self._synthetic_inputs(epsilon=0.25)[:2]
        grid = np.array([-0.5, 0.25, 0.75])
        # as in the two-level test above: stack position 9 gets a t1 whose
        # closed form is 0.5 at the last exponent (its multilevel root lies
        # below 1 there, near 2 at 0.25), stack position 10 one beyond its
        # background-only limit, so it fails at every exponent; the search
        # stops at the bound it passed, and the error reports the model t1
        # there
        a1, b1 = inputs
        late = a1.dataset.records[-1]
        spec = a1.spec_provider(late.phi_ext)
        env = replace(a1.env, epsilon=0.75)
        background = two_level_total_rate(spec, a1.res, env, BACKGROUND_MECHANISMS)
        q0 = two_level_qceff_closed_form(late.t1, spec, a1.res, env)
        late = replace(late, t1=1.0 / (background + q0 * (1.0 / late.t1 - background) / 0.5))
        early = b1.dataset.records[0]
        early_spec = b1.spec_provider(early.phi_ext)
        limit = 1.0 / two_level_total_rate(early_spec, b1.res, b1.env, BACKGROUND_MECHANISMS)
        early = replace(early, t1=2.0 * limit)
        inputs[0] = replace(a1, dataset=replace(a1.dataset,
                                                records=a1.dataset.records[:-1] + (late,)))
        inputs[1] = replace(b1, dataset=replace(b1.dataset,
                                                records=(early,) + b1.dataset.records[1:]))
        # the first exponent fails first, at the later record
        at_top = BiasModel(early_spec, b1.res, replace(b1.env, epsilon=-0.5)).t1(
            mode, qc_eff=1e12)
        with pytest.raises(FitError) as raised:
            fit_epsilon_global(inputs, mode=mode, grid=grid)
        assert str(raised.value) == (
            f"record at phi_ext = {float(early.phi_ext)!r}, epsilon = -0.5: "
            f"no qc_eff in [1e0, 1e12] reproduces t1 = {early.t1:.3e} s "
            f"(model t1 at the bound is {at_top:.3e} s)")
        # without it, the earlier record fails at the last exponent
        inputs[1] = b1
        at_bottom = BiasModel(spec, a1.res, env).t1(mode, qc_eff=1.0)
        with pytest.raises(FitError) as raised:
            fit_epsilon_global(inputs, mode=mode, grid=grid)
        assert str(raised.value) == (
            f"record at phi_ext = {float(late.phi_ext)!r}, epsilon = 0.75: "
            f"no qc_eff in [1e0, 1e12] reproduces t1 = {late.t1:.3e} s "
            f"(model t1 at the bound is {at_bottom:.3e} s)")


class TestFluxNoiseAmplitude:
    def test_exact_recovery_on_noiseless_data(self, b1_params):
        sqrt_a = 5.2e-6
        records = []
        for phi in np.linspace(0.42, 0.49, 8):
            slope = flux_dispersion(b1_params, FluxBias(phi))
            records.append(DephasingRecord(
                phi_ext=phi, gamma_phi_e=abs(slope) * sqrt_a * math.sqrt(math.log(2)),
                slope=slope))
        ds = DephasingDataset(records=tuple(records))
        assert extract_flux_noise_amplitude(ds, b1_params) == pytest.approx(
            sqrt_a, rel=1e-9)

    def test_zero_rates_give_zero(self, b1_params):
        records = tuple(DephasingRecord(phi_ext=phi, gamma_phi_e=0.0, slope=-1e10)
                        for phi in (0.45, 0.47))
        assert extract_flux_noise_amplitude(
            DephasingDataset(records=records), b1_params) == 0.0

    def test_noisy_recovery_within_five_percent(self, b1_params, rng):
        sqrt_a = 5.2e-6
        records = []
        for phi in np.linspace(0.40, 0.49, 20):
            slope = flux_dispersion(b1_params, FluxBias(phi))
            gamma = abs(slope) * sqrt_a * math.sqrt(math.log(2))
            gamma *= 1.0 + 0.10 * rng.standard_normal()
            records.append(DephasingRecord(phi_ext=phi, gamma_phi_e=gamma, slope=slope))
        ds = DephasingDataset(records=tuple(records))
        assert extract_flux_noise_amplitude(ds, b1_params) == pytest.approx(
            sqrt_a, rel=0.05)

    @pytest.mark.parametrize("records", [
        tuple(DephasingRecord(phi_ext=0.5, gamma_phi_e=100.0) for _ in range(4)),
        # integer flux is a sweet spot too: its computed slope is rounding residue
        tuple(DephasingRecord(phi_ext=phi, gamma_phi_e=100.0) for phi in (0.0, 1.0, 0.5)),
        # a slope column of zeros leaves nothing to fit through the origin
        tuple(DephasingRecord(phi_ext=phi, gamma_phi_e=100.0, slope=0.0)
              for phi in (0.2, 0.3, 0.4)),
    ], ids=["half_flux", "integer_and_half_flux", "zero_slopes"])
    def test_sweet_spot_only_rejected(self, b1_params, records):
        with pytest.raises(ValueError, match="sweet spots"):
            extract_flux_noise_amplitude(DephasingDataset(records=records), b1_params)

    def test_integer_flux_is_skipped(self, b1_params):
        sqrt_a = 3.0e-6
        records = [DephasingRecord(phi_ext=phi, gamma_phi_e=1e3) for phi in (0.0, 1.0, -1e-9)]
        for phi in (0.1, 0.2, 0.44):
            slope = flux_dispersion(b1_params, FluxBias(phi))
            records.append(DephasingRecord(
                phi_ext=phi, gamma_phi_e=abs(slope) * sqrt_a * math.sqrt(math.log(2))))
        ds = DephasingDataset(records=tuple(records))
        assert [r.phi_ext for r in ds.fit_records()] == [0.1, 0.2, 0.44]
        assert extract_flux_noise_amplitude(ds, b1_params) == pytest.approx(sqrt_a, rel=1e-6)

    def test_slope_recomputed_when_absent(self, b1_params):
        sqrt_a = 3.0e-6
        records = []
        for phi in (0.44, 0.46, 0.48):
            slope = flux_dispersion(b1_params, FluxBias(phi))
            records.append(DephasingRecord(
                phi_ext=phi, gamma_phi_e=abs(slope) * sqrt_a * math.sqrt(math.log(2))))
        ds = DephasingDataset(records=tuple(records))
        assert extract_flux_noise_amplitude(ds, b1_params) == pytest.approx(
            sqrt_a, rel=1e-6)


def dist_of(values):
    return QceffDistribution(entries=tuple(QceffEntry(freq=1e9, qceff=v)
                                           for v in values), epsilon_used=0.25)


class TestSummarize:
    def test_hand_computed_values(self):
        s = summarize(dist_of([1.0, 2.0, 3.0, 4.0]))
        assert s.mean == 2.5
        assert s.median == 2.5
        assert s.std == pytest.approx(1.29099, abs=1e-5)
        assert s.iqr == pytest.approx(1.5)
        assert s.n == 4

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            summarize(dist_of([3.0]))

    def test_symmetric_distribution_mean_equals_median(self):
        s = summarize(dist_of([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert s.mean == s.median

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize(dist_of([]))

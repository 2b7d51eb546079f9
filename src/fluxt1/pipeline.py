"""Measured-T1 analysis: binning, exclusion, quality-factor inversion, fits.

The chain runs: ingest measured relaxation times -> 8 MHz binned average (to
de-weight oversampled defect features) -> drop points dominated by flux noise
or radiative loss -> invert the remaining points into an effective capacitive
quality factor per frequency bin: in closed form in the two-level model, by a
bracketed root find through the multilevel decay model otherwise, started one
Newton step off the closed form on its two-level slope. ``invert_stack`` is
the one inversion call, in every mode: it inverts many records at every
exponent of a grid, and its root finds run in lockstep, one exponent at a
time: each round evaluates every record still searching as one stack of
models, whose summed rates are one array expression over channel tables
stacked once. A global frequency exponent is chosen by minimizing the
pooled variance of the log-centered quality factors across qubits, from one
such call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import BiasModel, T1Mode, multilevel_t1, rising_root, summed_rates
from .errors import (
    DataError,
    FitError,
    FluxT1Error,
    ModelTraceWarning,
    check_fields,
    check_number,
)
from .hamiltonian import FluxBias, FluxoniumParams, Spectrum, diagonalize, flux_dispersion
from .loss import (
    ANALYSIS_MECHANISMS,
    BACKGROUND_MECHANISMS,
    Environment,
    Mechanism,
    capacitive_pair_rates,
)
from .resonator import ResonatorParams

DEFAULT_BIN_WIDTH = 8e6  # Hz
DEFAULT_EXCLUSION_THRESHOLD = 0.1
EPSILON_GRID = (-1.0, 1.0, 0.05)  # default frequency-exponent grid: start, stop, step
# multilevel root-find start when the two-level closed form is outside (1e2, 1e9)
FALLBACK_QCEFF = Environment.qc_eff
# the inversion returns a qc_eff with log10(qc_eff) within these bounds
LOG10_QCEFF_MIN = 0.0
LOG10_QCEFF_MAX = 12.0
# the multilevel search starts one Newton step off the closed form, on the
# two-level slope of log t1 in log10(qc_eff), ln10 (1 - Gamma_bg t1), taken
# no flatter than NEWTON_SLOPE_MIN ln10; its first bracket then reaches
# NEWTON_REACH of that step's length, and at least NEWTON_REACH_FLOOR
# decades, toward the sign change, doubling until it holds one
NEWTON_SLOPE_MIN = 0.05
NEWTON_REACH = 0.1
NEWTON_REACH_FLOOR = 1e-6
# root tolerance in decades of qc_eff (~2e-12 relative): just above the
# rounding floor of the multilevel model t1 (~1e-13), below which the worst
# error over a dataset is set by that floor's scatter instead of the tolerance
ROOT_XTOL = 1e-12
SWEET_SPOT_TOL = 1e-6


@dataclass(frozen=True)
class T1Record:
    """One relaxation measurement at a flux bias."""

    phi_ext: float
    t1: float
    omega01: float | None = None
    t1_err: float | None = None
    n_binned: int = 1

    def __post_init__(self):
        check_fields(self, t1="> 0", omega01="> 0", t1_err=">= 0", n_binned="> 0")


@dataclass(frozen=True)
class T1Dataset:
    """Measured T1 records for one qubit, with the ingest filter applied.

    Records whose fit uncertainty exceeds twice the value indicate a failed
    calibration and are dropped at construction; the drop count is kept.
    """

    records: tuple[T1Record, ...]
    qubit_id: str = ""
    n_ingest_dropped: int = 0

    @classmethod
    def from_records(cls, records, qubit_id: str = "") -> "T1Dataset":
        kept, dropped = [], 0
        for r in records:
            if r.t1_err is not None and r.t1_err > 2.0 * r.t1:
                dropped += 1
            else:
                kept.append(r)
        return cls(records=tuple(kept), qubit_id=qubit_id, n_ingest_dropped=dropped)

    def __len__(self) -> int:
        return len(self.records)


class CachedSpectrumProvider:
    """phi_ext -> Spectrum map with memoization, for per-record rate work:
    the models built on a served spectrum share its rate data, so the
    exclusion filter and every inversion of one bias share one build of its
    tables."""

    def __init__(self, params: FluxoniumParams, n_levels: int = 6):
        self.params = params
        self.n_levels = n_levels
        self._cache: dict[float, Spectrum] = {}

    def __call__(self, phi_ext: float) -> Spectrum:
        key = float(phi_ext)
        if key not in self._cache:
            self._cache[key] = diagonalize(self.params, FluxBias(key), n_levels=self.n_levels)
        return self._cache[key]


def bin_average(ds: T1Dataset, bin_width: float = DEFAULT_BIN_WIDTH) -> T1Dataset:
    """Merge records sharing a fixed-width frequency bin anchored at 0 Hz.

    Bins holding two or more records collapse to a single record at the
    unweighted mean frequency/flux with the unweighted mean t1; singletons
    pass through unchanged. Output is sorted by frequency, so reapplying the
    binning is a no-op.
    """
    if not bin_width > 0.0:
        raise ValueError(f"bin_width must be > 0, got {bin_width!r}")
    bins: dict[int, list[T1Record]] = {}
    for r in ds.records:
        if r.omega01 is None:
            raise ValueError("bin_average requires omega01 on every record")
        bins.setdefault(int(r.omega01 // bin_width), []).append(r)
    out = []
    for _, members in sorted(bins.items()):
        if len(members) == 1:
            out.append(members[0])
        else:
            total = sum(m.n_binned for m in members)
            out.append(
                T1Record(
                    phi_ext=float(np.mean([m.phi_ext for m in members])),
                    t1=float(np.mean([m.t1 for m in members])),
                    omega01=float(np.mean([m.omega01 for m in members])),
                    t1_err=None,
                    n_binned=total,
                )
            )
    return replace(ds, records=tuple(out))


def exclusion_filter(
    ds: T1Dataset,
    spec_provider,
    env: Environment,
    res: ResonatorParams,
    threshold: float = DEFAULT_EXCLUSION_THRESHOLD,
) -> tuple[T1Dataset, T1Dataset]:
    """Split records into (kept, dropped) by the background-loss fraction.

    A record is dropped when the combined flux-noise plus radiative
    prediction exceeds ``threshold`` of its measured decay rate: such points
    say little about capacitive loss. ``spec_provider`` is any
    phi_ext -> Spectrum callable; on a ``CachedSpectrumProvider``'s spectra
    the tables built here serve the later inversion of the same records.
    """
    kept, dropped = [], []
    for r in ds.records:
        predicted = BiasModel(spec_provider(r.phi_ext), res, env).pair_rate(BACKGROUND_MECHANISMS)
        measured = 1.0 / r.t1
        (dropped if predicted / measured > threshold else kept).append(r)
    return replace(ds, records=tuple(kept)), replace(ds, records=tuple(dropped))


class QceffInverter(BiasModel):
    """Measured t1 -> qc_eff at one flux bias, through the bias's model.

    ``invert`` is ``invert_stack`` as a stack of one, at the inverter's own
    exponent; ``predict_t1`` reads the model t1 at a trial qc_eff. The
    frequency exponent enters only the capacitive pairs, as the factor
    (f_ij / 6 GHz)^epsilon: inverters on one spectrum, at any exponent,
    share its tables and build none after the first. No package code or
    script calls it; it stays because the benchmark reads it: its tracer
    (``perfbench/spans.py``) wraps both methods, and its input synthesis
    (``perfbench/workloads.py``) reads ``predict_t1``.
    """

    def __init__(self, spec: Spectrum, res: ResonatorParams, env: Environment,
                 mode: T1Mode = T1Mode.MULTILEVEL_SIGNAL):
        super().__init__(spec, res, env)
        self.mode = T1Mode(mode)

    def predict_t1(self, qc_eff: float) -> float:
        return self.t1(self.mode, qc_eff=qc_eff)

    def invert(self, t1_measured: float) -> float:
        """The qc_eff in [10**LOG10_QCEFF_MIN, 10**LOG10_QCEFF_MAX] whose
        model t1 is ``t1_measured``; see ``invert_stack``."""
        return float(invert_stack([self], [t1_measured], [self.env.epsilon], self.mode)[0, 0])


def invert_stack(models, t1_measured, epsilon, mode: T1Mode = T1Mode.MULTILEVEL_SIGNAL
                 ) -> np.ndarray:
    """The qc_eff in [10**LOG10_QCEFF_MIN, 10**LOG10_QCEFF_MAX] whose model t1
    is the measured one, for each (model, t1) pair at each exponent of the
    1-D ``epsilon``: an R x E array, all records inverted in lockstep. The
    models' own exponent is not read.

    In two_level mode 1/t1 = Gamma_bg + K/qc_eff, so the answer is
    ``two_level_qceff``. The multilevel modes solve, one exponent at a time
    in grid order, g(u) = log t1_model(10**u) - log t1_measured = 0 over
    u = log10(qc_eff), each record on a model built at that exponent (one
    environment per distinct environment of the stack). Each member reads g
    at u0, log10 of the closed form when it lies in (1e2, 1e9), else of
    FALLBACK_QCEFF, and steps to u1 = u0 - g(u0) / s on the two-level slope
    s = ln10 (1 - Gamma_bg t1), clipped below at NEWTON_SLOPE_MIN ln10, with
    u1 kept within the bounds; ``rising_root`` then searches from u1 with a
    first reach of NEWTON_REACH |u1 - u0|, at least NEWTON_REACH_FLOOR. Each
    round evaluates the trial qc_eff of every member still searching as one
    ``multilevel_t1`` stack, whose rates ``summed_rates`` forms from the
    channel tables of all members stacked once, the capacitive one rescaled
    by env.qc_eff / qc_eff as ``BiasModel.rates`` does, bit for bit; so the
    models must retain one number of levels. The per-trace model warnings
    (``ModelTraceWarning``) of these trial models are silenced; any other
    warning propagates. Raises the FitError of the first failing cell,
    exponent by exponent and record by record within one, when no qc_eff
    within the bounds reproduces its t1 (for instance a t1 longer than the
    non-capacitive channels alone allow), or the error of a failed model
    evaluation of it; a failed read of a record's rate data, p0 or readout
    weights raises first, at the exponent that read it. Each message begins
    with the record's phi_ext, and with its exponent too when ``epsilon``
    holds more than one.
    """
    mode = T1Mode(mode)
    t1_measured = np.asarray(t1_measured, dtype=float)
    epsilon = np.asarray(epsilon, dtype=float)
    if not models:
        return np.empty((0, epsilon.size))
    q = two_level_qceff(models, t1_measured, epsilon)
    if mode is T1Mode.TWO_LEVEL:
        _raise_unmatched(q, models, t1_measured, epsilon)
        return q
    if len({model.spec.n_levels for model in models}) > 1:
        raise ValueError("the models of a multilevel stack must retain one number of levels")
    environments = dict.fromkeys(model.env for model in models)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelTraceWarning)
        for e, eps in enumerate(epsilon.tolist()):
            u0 = np.array([math.log10(v) if 1e2 < v < 1e9 else math.log10(FALLBACK_QCEFF)
                           for v in q[:, e].tolist()])
            envs = {env: replace(env, epsilon=eps) for env in environments}
            failures = np.full(len(models), None, dtype=object)
            q[:, e] = 10.0 ** _lockstep_root(
                [BiasModel(model.spec, model.res, envs[model.env]) for model in models],
                t1_measured, u0, mode, failures, epsilon, e)
            for r, err in enumerate(failures):
                if err is not None:
                    raise _located(err, models[r], epsilon, e)
    return q


def two_level_qceff(models, t1_measured, epsilon) -> np.ndarray:
    """The two-level closed form q = qc_eff * K(eps) / (1/t1 - Gamma_bg) of
    every record (models[r], t1_measured[r]) at every exponent of the 1-D
    ``epsilon``, as one array expression: an R x E array, nan where the
    residual 1/t1 - Gamma_bg is not positive.

    Each record's exponent-free inputs are read once, from the rate data its
    model shares: the background pair rate Gamma_bg, and the capacitive
    0<->1 pair (``ChannelPairs.pair_01``), whose rate at the model's qc_eff
    is K (``capacitive_pair_rates``). So a cell is bit for bit the closed
    form of one model at that exponent, whatever exponent the model carries,
    and no model is built per exponent. A failed read names its record.
    """
    background = np.array(_read_each(
        models, lambda model: model.pair_rate(BACKGROUND_MECHANISMS), epsilon))
    qc_eff = np.array([model.env.qc_eff for model in models])
    strength, f, down, up = map(np.concatenate, zip(*_read_each(
        models, lambda model: model.pairs(Mechanism.CAPACITIVE).pair_01(), epsilon)))
    k = capacitive_pair_rates(strength, f, down, up, qc_eff, epsilon)
    residual = 1.0 / np.asarray(t1_measured, dtype=float) - background
    return qc_eff[:, None] * k / np.where(residual > 0.0, residual, np.nan)[:, None]


def _raise_unmatched(q, models, t1_measured, epsilon) -> None:
    """Raise the FitError of the first cell of an R x E closed form, exponent
    by exponent and record by record within one, that lies outside the
    bounds; a record whose residual is not positive fails at every exponent."""
    outside = ~((q >= 10.0 ** LOG10_QCEFF_MIN) & (q <= 10.0 ** LOG10_QCEFF_MAX))
    if not outside.any():
        return
    e, r = np.argwhere(outside.T)[0].tolist()
    t1 = float(t1_measured[r])
    background = models[r].pair_rate(BACKGROUND_MECHANISMS)
    detail = (f"the closed form gives qc_eff = {q[r, e]:.3e}" if 1.0 / t1 - background > 0.0
              else f"the non-capacitive channels alone give t1 = {1.0 / background:.3e} s")
    raise _located(_unmatched(t1, detail), models[r], epsilon, e)


def _lockstep_root(models, t1_measured, u0, mode, failures, epsilon, e) -> np.ndarray:
    """``invert_stack``'s multilevel root in log10(qc_eff) of every member at
    exponent ``epsilon[e]``, searched from one Newton step off u0; a member
    that fails stores its FitError in ``failures``."""
    log_t1 = np.log(t1_measured)
    p0 = np.stack(_read_each(models, lambda model: model.p0, epsilon, e))
    weights = (np.stack(_read_each(models, lambda model: model.weights, epsilon, e))
               if mode is T1Mode.MULTILEVEL_SIGNAL else None)
    tables = [np.stack(_read_each(models, lambda model: model.channel_rates(m), epsilon, e))
              for m in ANALYSIS_MECHANISMS]
    qc_eff = [model.env.qc_eff for model in models]
    last = np.full(len(models), np.nan)  # each member's latest value of g

    def g(u, members):
        scale = np.array([qc_eff[k] / 10.0 ** v for k, v in zip(members.tolist(), u.tolist())])
        rates = summed_rates([table[members] for table in tables], ANALYSIS_MECHANISMS,
                             scale[:, None, None])
        failed = np.full((members.size, 1), None, dtype=object)
        t1 = multilevel_t1(rates, p0[members], None if weights is None else weights[members],
                           (mode,), failed)[:, 0]
        failures[members] = failed[:, 0]
        last[members] = np.log(t1) - log_t1[members]
        return last[members]

    background = np.array([model.pair_rate(BACKGROUND_MECHANISMS) for model in models])
    slope = math.log(10.0) * np.clip(1.0 - background * t1_measured, NEWTON_SLOPE_MIN, 1.0)
    g0 = g(u0, np.arange(len(models)))
    live = np.flatnonzero(np.isfinite(g0))
    u1 = np.clip(u0[live] - g0[live] / slope[live], LOG10_QCEFF_MIN, LOG10_QCEFF_MAX)
    reach = np.maximum(NEWTON_REACH * np.abs(u1 - u0[live]), NEWTON_REACH_FLOOR)
    u = np.full(len(models), np.nan)
    u[live] = rising_root(lambda v, members: g(v, live[members]), u1, reach,
                          LOG10_QCEFF_MIN, LOG10_QCEFF_MAX, ROOT_XTOL)
    for k in np.flatnonzero(np.isnan(u)):
        if failures[k] is None:
            # the search stopped at the bound, so g was last read there
            failures[k] = _unmatched(float(t1_measured[k]), "model t1 at the bound is "
                                     f"{math.exp(last[k] + log_t1[k]):.3e} s")
    return u


def _read_each(models, read, epsilon, e: int = 0) -> list:
    """``read(model)`` of every model in turn; a failed read raises its error
    again, led by its record at exponent ``epsilon[e]`` (``_located``)."""
    values = []
    for model in models:
        try:
            values.append(read(model))
        except FluxT1Error as err:
            raise _located(err, model, epsilon, e) from err
    return values


def _located(err: FluxT1Error, model: BiasModel, epsilon, e: int) -> FluxT1Error:
    """``err`` again, of its own class, its message led by the flux bias of
    its record's model, and by exponent ``epsilon[e]`` when there are more."""
    where = f"record at phi_ext = {float(model.spec.bias.phi_ext)!r}"
    if len(epsilon) > 1:
        where += f", epsilon = {float(epsilon[e])!r}"
    return type(err)(f"{where}: {err}")


def _unmatched(t1_measured: float, detail: str) -> FitError:
    """The error of a t1 that no qc_eff within the bounds reproduces."""
    return FitError(f"no qc_eff in [1e{LOG10_QCEFF_MIN:g}, 1e{LOG10_QCEFF_MAX:g}] "
                    f"reproduces t1 = {t1_measured:.3e} s ({detail})")


@dataclass(frozen=True)
class QceffEntry:
    freq: float
    qceff: float
    n_binned: int = 1

    def __post_init__(self):
        check_fields(self, freq="> 0", qceff="> 0", n_binned="> 0")


@dataclass(frozen=True)
class QceffDistribution:
    """Per-qubit extracted quality factors, the unit of statistical comparison."""

    entries: tuple[QceffEntry, ...]
    epsilon_used: float
    qubit_id: str = ""

    def __post_init__(self):
        check_number("epsilon_used", self.epsilon_used)

    def values(self) -> np.ndarray:
        return np.array([e.qceff for e in self.entries])

    def __len__(self) -> int:
        return len(self.entries)


def extract_qceff_dataset(
    ds: T1Dataset,
    spec_provider,
    res: ResonatorParams,
    env: Environment,
    mode: T1Mode = T1Mode.MULTILEVEL_SIGNAL,
) -> QceffDistribution:
    """Invert every record of a dataset, in lockstep (``invert_stack``), on
    the spectrum ``spec_provider`` serves for its bias."""
    specs = [spec_provider(record.phi_ext) for record in ds.records]
    q = invert_stack([BiasModel(spec, res, env) for spec in specs],
                     [record.t1 for record in ds.records], [env.epsilon], mode)[:, 0]
    entries = tuple(
        QceffEntry(freq=float(spec.transition_frequency(0, 1) if record.omega01 is None
                              else record.omega01),
                   qceff=float(value), n_binned=record.n_binned)
        for record, spec, value in zip(ds.records, specs, q.tolist()))
    return QceffDistribution(entries=entries, epsilon_used=env.epsilon, qubit_id=ds.qubit_id)


@dataclass(frozen=True)
class DistributionSummary:
    mean: float
    median: float
    std: float
    iqr: float
    n: int


def summarize(dist: QceffDistribution) -> DistributionSummary:
    """Mean, midpoint median, sample (n-1) std, and interpolated IQR."""
    values = dist.values()
    if values.size == 0:
        raise ValueError("cannot summarize an empty distribution")
    if values.size == 1:
        raise ValueError("standard deviation undefined for a single entry")
    q1, q3 = np.percentile(values, [25.0, 75.0], method="linear")
    return DistributionSummary(
        mean=float(np.mean(values)),
        median=float(np.median(values)),
        std=float(np.std(values, ddof=1)),
        iqr=float(q3 - q1),
        n=int(values.size),
    )


@dataclass(frozen=True)
class QubitAnalysisInput:
    """Everything needed to re-run the extraction for one qubit.

    ``spec_provider`` maps a record's phi_ext to its spectrum (a
    ``CachedSpectrumProvider``, typically the one that already served the
    exclusion filter, so no bias is solved or tabulated twice); it fixes the
    retained levels.
    """

    dataset: T1Dataset
    spec_provider: CachedSpectrumProvider
    res: ResonatorParams
    env: Environment


@dataclass(frozen=True)
class EpsilonFitResult:
    epsilon: float
    grid: np.ndarray
    pooled_variance: np.ndarray


def fit_epsilon_global(
    qubit_inputs: list[QubitAnalysisInput],
    grid: np.ndarray,
    mode: T1Mode = T1Mode.MULTILEVEL_SIGNAL,
) -> EpsilonFitResult:
    """Frequency exponent minimizing the pooled variance of centered log Q.

    At each trial exponent every qubit's records are re-inverted; each
    qubit's log10 quality factors are centered on the log of that qubit's
    mean, pooled, and the exponent with the smallest pooled variance wins.
    All qubits' records at every exponent are one ``invert_stack`` call, in
    any mode, on one model per record; the first cell that fails, exponent
    by exponent and record by record within one, raises its FitError. The
    exponent enters only the capacitive pairs' factor, so no model at any
    exponent builds a table its spectrum does not already hold.
    """
    if not qubit_inputs:
        raise ValueError("need at least one qubit dataset")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("the exponent grid is empty")
    empty = [qi.dataset.qubit_id for qi in qubit_inputs if not qi.dataset.records]
    if empty:
        raise DataError(f"no records left to fit for qubits {empty}")

    models = [BiasModel(qi.spec_provider(r.phi_ext), qi.res, qi.env)
              for qi in qubit_inputs for r in qi.dataset.records]
    t1 = [r.t1 for qi in qubit_inputs for r in qi.dataset.records]
    columns = np.ascontiguousarray(invert_stack(models, t1, grid, mode).T)
    # each qubit's records, as contiguous slices of one exponent's values
    bounds = np.cumsum([len(qi.dataset.records) for qi in qubit_inputs])[:-1]
    variances = np.empty(grid.size)
    for k, values in enumerate(columns):
        pooled = [np.log10(mine) - math.log10(float(np.mean(mine)))
                  for mine in np.split(values, bounds)]
        variances[k] = float(np.var(np.concatenate(pooled)))
    best = int(np.argmin(variances))
    variances.setflags(write=False)
    return EpsilonFitResult(epsilon=float(grid[best]), grid=grid, pooled_variance=variances)


@dataclass(frozen=True)
class DephasingRecord:
    phi_ext: float
    gamma_phi_e: float
    slope: float | None = None  # rad/s per Phi0, recomputed when absent

    def __post_init__(self):
        check_fields(self, gamma_phi_e=">= 0")


@dataclass(frozen=True)
class DephasingDataset:
    records: tuple[DephasingRecord, ...]

    def fit_records(self) -> tuple[DephasingRecord, ...]:
        """The records the flux-noise fit uses: those away from the sweet
        spots at integer and half-integer flux, where the 0->1 dispersion
        vanishes by symmetry and dephasing carries no slope information."""
        return tuple(r for r in self.records
                     if min(r.phi_ext % 0.5, 0.5 - r.phi_ext % 0.5) >= SWEET_SPOT_TOL)


def extract_flux_noise_amplitude(ds: DephasingDataset, params: FluxoniumParams) -> float:
    """sqrt(A_phi) in Phi0/sqrt(Hz) from echo dephasing versus flux slope.

    Fits gamma_phi = |domega01/dPhi| * sqrt(A_phi ln 2) through the origin
    (dephasing must vanish where the slope does) over ``ds.fit_records()``.
    Raises ValueError when fewer than 2 records lie away from the sweet
    spots, or when every kept slope is zero.
    """
    xs, ys = [], []
    for r in ds.fit_records():
        slope = r.slope
        if slope is None:
            slope = flux_dispersion(params, FluxBias(r.phi_ext))
        xs.append(abs(slope))
        ys.append(r.gamma_phi_e)
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if xs.size < 2 or not xs.any():
        raise ValueError("need at least 2 records away from the flux sweet spots, "
                         "with a nonzero slope")
    fitted = float(xs @ ys / (xs @ xs))  # least squares through the origin
    return fitted / math.sqrt(math.log(2.0))

"""Measured-T1 analysis: binning, exclusion, quality-factor inversion, fits.

The chain runs: ingest measured relaxation times -> 8 MHz binned average (to
de-weight oversampled defect features) -> drop points dominated by flux noise
or radiative loss -> invert the remaining points into an effective capacitive
quality factor per frequency bin: in closed form in the two-level model, by a
bracketed root find through the multilevel decay model otherwise. The root
finds of many records run in lockstep (``invert_stack``): each round
evaluates every record still searching as one stack of models. A global
frequency exponent is chosen by minimizing the pooled variance of the
log-centered quality factors across qubits.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import BiasModel, T1Mode, multilevel_t1, rising_root, two_level_total_rate
from .errors import DataError, FitError, check_fields, check_number
from .hamiltonian import FluxBias, FluxoniumParams, Spectrum, diagonalize, flux_dispersion
from .loss import (
    ANALYSIS_MECHANISMS,
    BACKGROUND_MECHANISMS,
    Environment,
    Mechanism,
    build_mechanism_table,
)
from .resonator import ResonatorParams

logger = logging.getLogger(__name__)

DEFAULT_BIN_WIDTH = 8e6  # Hz
DEFAULT_EXCLUSION_THRESHOLD = 0.1
EPSILON_GRID = (-1.0, 1.0, 0.05)  # default frequency-exponent grid: start, stop, step
# multilevel root-find start when the two-level closed form is outside (1e2, 1e9)
FALLBACK_QCEFF = Environment.qc_eff
# the inversion returns a qc_eff with log10(qc_eff) within these bounds
LOG10_QCEFF_MIN = 0.0
LOG10_QCEFF_MAX = 12.0
# first half-width of the bracket around the start, in decades; doubles
# until the bracket holds a sign change
BRACKET_STEP = 0.02
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
    calibration and are dropped at construction; the drop count is kept and
    logged.
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
        if dropped:
            logger.info("%s: dropped %d records with t1_err > 2*t1 at ingest", qubit_id, dropped)
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

    ``invert`` is ``invert_stack`` as a stack of one; ``predict_t1`` reads
    the model t1 at a trial qc_eff. The frequency exponent enters only the
    capacitive pairs, as the factor (f_ij / 6 GHz)^epsilon: inverters on one
    spectrum, at any exponent, share its tables and build none after the
    first.
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
        return float(invert_stack([self], [t1_measured], self.mode)[0])


def invert_stack(models, t1_measured, mode: T1Mode = T1Mode.MULTILEVEL_SIGNAL) -> np.ndarray:
    """The qc_eff in [10**LOG10_QCEFF_MIN, 10**LOG10_QCEFF_MAX] whose model t1
    is the measured one, for each (model, t1) pair, all inverted in lockstep.

    In two_level mode 1/t1 = Gamma_bg + K/qc_eff, so each inversion is the
    closed form q = qc_eff * K / (1/t1 - Gamma_bg). The multilevel modes
    solve log t1_model(10**u) = log t1_measured over u = log10(qc_eff) with
    ``rising_root``, every member from log10(q) when 1e2 < q < 1e9, else from
    FALLBACK_QCEFF; each round evaluates the trial qc_eff of every member
    still searching as one ``multilevel_t1`` stack, whose capacitive rates
    are the model's memoized table rescaled. Raises the first member's
    FitError, in stack order, when no qc_eff within the bounds reproduces its
    t1 (for instance a t1 longer than the non-capacitive channels alone
    allow), or a model evaluation of it fails.
    """
    mode = T1Mode(mode)
    t1_measured = np.asarray(t1_measured, dtype=float)
    failures = np.full(len(models), None, dtype=object)
    q, u0 = np.empty(len(models)), np.empty(len(models))
    for k, (model, t1) in enumerate(zip(models, t1_measured.tolist())):
        background = model.pair_rate(BACKGROUND_MECHANISMS)
        residual = 1.0 / t1 - background
        q[k] = (model.env.qc_eff * model.pair_rate((Mechanism.CAPACITIVE,)) / residual
                if residual > 0.0 else 0.0)
        if mode is not T1Mode.TWO_LEVEL:
            u0[k] = math.log10(q[k]) if 1e2 < q[k] < 1e9 else math.log10(FALLBACK_QCEFF)
        elif not 10.0 ** LOG10_QCEFF_MIN <= q[k] <= 10.0 ** LOG10_QCEFF_MAX:
            failures[k] = _unmatched(t1, f"the closed form gives qc_eff = {q[k]:.3e}"
                                     if residual > 0.0 else "the non-capacitive channels "
                                     f"alone give t1 = {1.0 / background:.3e} s")
    if mode is not T1Mode.TWO_LEVEL:
        # one stack per number of retained levels
        sizes = np.array([model.spec.n_levels for model in models])
        for size in np.unique(sizes).tolist():
            group = np.flatnonzero(sizes == size)
            failed = failures[group]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                q[group] = 10.0 ** _lockstep_root([models[k] for k in group.tolist()],
                                                  t1_measured[group], u0[group], mode, failed)
            failures[group] = failed
    for err in failures:
        if err is not None:
            raise err
    return q


def _lockstep_root(models, t1_measured, u0, mode, failures) -> np.ndarray:
    """``invert_stack``'s multilevel root in log10(qc_eff) of every member,
    from u0; a member that fails stores its FitError in ``failures``."""
    log_t1 = np.log(t1_measured)
    p0 = np.stack([model.p0 for model in models])
    weights = (np.stack([model.weights for model in models])
               if mode is T1Mode.MULTILEVEL_SIGNAL else None)
    last = np.full(len(models), np.nan)  # each member's latest value of g

    def g(u, members):
        rates = np.stack([models[k].rates(ANALYSIS_MECHANISMS, 10.0 ** v)
                          for k, v in zip(members.tolist(), u.tolist())])
        failed = np.full((members.size, 1), None, dtype=object)
        t1 = multilevel_t1(rates, p0[members], None if weights is None else weights[members],
                           (mode,), failed)[:, 0]
        failures[members] = failed[:, 0]
        last[members] = np.log(t1) - log_t1[members]
        return last[members]

    u = rising_root(g, u0, BRACKET_STEP, LOG10_QCEFF_MIN, LOG10_QCEFF_MAX, ROOT_XTOL)
    for k in np.flatnonzero(np.isnan(u)):
        if failures[k] is None:
            # the search stopped at the bound, so g was last read there
            failures[k] = _unmatched(float(t1_measured[k]), "model t1 at the bound is "
                                     f"{math.exp(last[k] + log_t1[k]):.3e} s")
    return u


def _unmatched(t1_measured: float, detail: str) -> FitError:
    """The error of a t1 that no qc_eff within the bounds reproduces."""
    return FitError(f"no qc_eff in [1e{LOG10_QCEFF_MIN:g}, 1e{LOG10_QCEFF_MAX:g}] "
                    f"reproduces t1 = {t1_measured:.3e} s ({detail})")


def two_level_qceff_closed_form(
    t1_measured: float,
    spec: Spectrum,
    res: ResonatorParams,
    env: Environment,
) -> float:
    """Algebraic two-level inversion: solve 1/t1 = Gamma_bg + K/qc_eff.

    The capacitive pair rate at fixed epsilon is exactly proportional to
    1/qc_eff, so the inversion is one division. Builds its tables through
    ``two_level_total_rate`` and ``build_mechanism_table``, apart from any
    ``BiasModel``, as the reference for ``QceffInverter.invert`` in two_level
    mode, which does the same arithmetic.
    """
    bg = two_level_total_rate(spec, res, env, BACKGROUND_MECHANISMS)
    residual = 1.0 / t1_measured - bg
    if residual <= 0.0:
        raise FitError(
            "measured rate is below the background (non-capacitive) prediction; "
            "no positive qc_eff reproduces it"
        )
    cap_ref = build_mechanism_table(spec, res, env, Mechanism.CAPACITIVE).pair_sum(0, 1)
    return env.qc_eff * cap_ref / residual


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
                     [record.t1 for record in ds.records], mode)
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

    For each trial exponent, every qubit's records are re-inverted, all in
    one ``invert_stack``; each qubit's log10 quality factors are centered on
    the log of that qubit's mean, pooled, and the exponent with the smallest
    pooled variance wins. The exponent enters only the capacitive pairs'
    factor, so a model at any exponent shares the tables its spectrum already
    holds and builds none.
    """
    if not qubit_inputs:
        raise ValueError("need at least one qubit dataset")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("the exponent grid is empty")
    empty = [qi.dataset.qubit_id for qi in qubit_inputs if not qi.dataset.records]
    if empty:
        raise DataError(f"no records left to fit for qubits {empty}")

    spectra = [qi.spec_provider(r.phi_ext) for qi in qubit_inputs for r in qi.dataset.records]
    t1 = [r.t1 for qi in qubit_inputs for r in qi.dataset.records]
    qubit = np.repeat(np.arange(len(qubit_inputs)),
                      [len(qi.dataset.records) for qi in qubit_inputs])
    variances = np.empty(grid.size)
    for k, eps in enumerate(grid.tolist()):
        envs = [replace(qi.env, epsilon=eps) for qi in qubit_inputs]
        values = invert_stack([BiasModel(spec, qubit_inputs[j].res, envs[j])
                               for spec, j in zip(spectra, qubit.tolist())], t1, mode)
        pooled = []
        for j in range(len(qubit_inputs)):
            mine = values[qubit == j]
            pooled.extend(np.log10(mine) - math.log10(float(np.mean(mine))))
        variances[k] = float(np.var(pooled))
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
    qubit_id: str = ""

    def fit_records(self) -> tuple[DephasingRecord, ...]:
        """The records the flux-noise fit uses: those away from the half-flux
        sweet spot, where dephasing carries no slope information."""
        return tuple(r for r in self.records
                     if abs(r.phi_ext % 1.0 - 0.5) >= SWEET_SPOT_TOL)


def extract_flux_noise_amplitude(ds: DephasingDataset, params: FluxoniumParams) -> float:
    """sqrt(A_phi) in Phi0/sqrt(Hz) from echo dephasing versus flux slope.

    Fits gamma_phi = |domega01/dPhi| * sqrt(A_phi ln 2) through the origin
    (dephasing must vanish where the slope does) over ``ds.fit_records()``.
    """
    xs, ys = [], []
    for r in ds.fit_records():
        slope = r.slope
        if slope is None:
            slope = flux_dispersion(params, FluxBias(r.phi_ext))
        xs.append(abs(slope))
        ys.append(r.gamma_phi_e)
    if len(xs) < 2:
        raise ValueError("need at least 2 records away from the half-flux sweet spot")
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    fitted = float(xs @ ys / (xs @ xs))  # least squares through the origin
    return fitted / math.sqrt(math.log(2.0))

"""Measured-T1 analysis: binning, exclusion, quality-factor inversion, fits.

The chain runs: ingest measured relaxation times -> 8 MHz binned average (to
de-weight oversampled defect features) -> drop points dominated by flux noise
or radiative loss -> invert the remaining points through the multilevel decay
model into an effective capacitive quality factor per frequency bin. A global
frequency exponent is chosen by minimizing the pooled variance of the
log-centered quality factors across qubits.
"""

from __future__ import annotations

import copy
import logging
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .dynamics import (
    RateMatrix,
    T1Mode,
    build_rate_matrix,
    default_time_grid,
    evolve,
    fit_exponential,
    invert_computational,
    thermal_population,
)
from .errors import FitError
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
# warm start when the two-level closed form has no usable positive solution
FALLBACK_QCEFF = 3.0e5
# the inversion searches log10(qc_eff) within these bounds
LOG10_QCEFF_MIN = 0.0
LOG10_QCEFF_MAX = 12.0
# first half-width of the bracket around the warm start, in decades; doubles
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
        if not self.t1 > 0.0:
            raise ValueError(f"t1 must be > 0, got {self.t1!r}")


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
    """phi_ext -> Spectrum map with memoization, for per-record rate work."""

    def __init__(self, params: FluxoniumParams, n_levels: int = 6, **diag_kwargs):
        self.params = params
        self.n_levels = n_levels
        self._kwargs = diag_kwargs
        self._cache: dict[float, Spectrum] = {}

    def __call__(self, phi_ext: float) -> Spectrum:
        key = float(phi_ext)
        if key not in self._cache:
            self._cache[key] = diagonalize(
                self.params, FluxBias(key), n_levels=self.n_levels, **self._kwargs
            )
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
    return T1Dataset(records=tuple(out), qubit_id=ds.qubit_id,
                     n_ingest_dropped=ds.n_ingest_dropped)


def background_rate(
    spec: Spectrum,
    res: ResonatorParams,
    env: Environment,
    mechanisms=BACKGROUND_MECHANISMS,
) -> float:
    """Symmetrized 0<->1 rate from every non-capacitive channel (1/s)."""
    total = 0.0
    for m in mechanisms:
        total += build_mechanism_table(spec, res, env, m).pair_sum(0, 1)
    return total


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
    say little about capacitive loss.
    """
    kept, dropped = [], []
    for r in ds.records:
        spec = spec_provider(r.phi_ext)
        predicted = background_rate(spec, res, env)
        measured = 1.0 / r.t1
        (dropped if predicted / measured > threshold else kept).append(r)
    make = lambda recs: T1Dataset(records=tuple(recs), qubit_id=ds.qubit_id,  # noqa: E731
                                  n_ingest_dropped=ds.n_ingest_dropped)
    return make(kept), make(dropped)


class QceffInverter:
    """Measured t1 -> qc_eff at one flux bias, reusing fixed-rate tables.

    Only the capacitive table depends on qc_eff, and it scales exactly as
    1/qc_eff at fixed frequency exponent, so each trial rebuilds the 6x6
    generator from a cached reference instead of recomputing rates. Modeled
    t1 rises monotonically with qc_eff, so the inversion is a bracketed root
    find in log10(qc_eff).
    """

    def __init__(
        self,
        spec: Spectrum,
        res: ResonatorParams,
        env: Environment,
        mode: T1Mode = T1Mode.MULTILEVEL_SIGNAL,
        mechanisms=ANALYSIS_MECHANISMS,
    ):
        self.spec = spec
        self.res = res
        self.mode = T1Mode(mode)
        cap = [m for m in mechanisms if m is Mechanism.CAPACITIVE]
        others = [m for m in mechanisms if m is not Mechanism.CAPACITIVE]
        if not cap:
            raise ValueError("inversion requires the capacitive mechanism in the set")
        self._fixed = [build_mechanism_table(spec, res, env, m) for m in others]
        self._fixed_pair = sum(t.pair_sum(0, 1) for t in self._fixed)
        self._set_capacitive(env)
        if self.mode is not T1Mode.TWO_LEVEL:
            self._p0 = invert_computational(thermal_population(spec, env.t_qubit))
        if self.mode is T1Mode.MULTILEVEL_SIGNAL:
            # readout weights do not depend on qc_eff; compute them once
            from .resonator import dressed_response

            self._weights = dressed_response(spec, res).rotated_points().real

    def _set_capacitive(self, env: Environment) -> None:
        self.env = env
        self._q_ref = env.qc_eff
        self._cap_ref = build_mechanism_table(self.spec, self.res, env, Mechanism.CAPACITIVE)
        self._cap_pair_ref = self._cap_ref.pair_sum(0, 1)

    def _with_epsilon(self, epsilon: float) -> "QceffInverter":
        """Copy at another frequency exponent, sharing every qc_eff- and
        epsilon-independent table, the initial state and the readout weights."""
        if epsilon == self.env.epsilon:
            return self
        other = copy.copy(self)
        other._set_capacitive(replace(self.env, epsilon=epsilon))
        return other

    def _generator(self, qc_eff: float) -> RateMatrix:
        scale = self._q_ref / qc_eff
        scaled = replace(self._cap_ref, rates=self._cap_ref.rates * scale)
        return build_rate_matrix([*self._fixed, scaled])

    def predict_t1(self, qc_eff: float) -> float:
        if self.mode is T1Mode.TWO_LEVEL:
            return 1.0 / (self._fixed_pair + self._cap_pair_ref * self._q_ref / qc_eff)
        rm = self._generator(qc_eff)
        times = default_time_grid(rm, self._p0)
        trace = evolve(rm, self._p0, times)
        if self.mode is T1Mode.MULTILEVEL_POPULATION:
            return fit_exponential(times, trace.populations[:, 1]).t1
        signal = np.abs(trace.populations @ self._weights)
        return fit_exponential(times, signal).t1

    def _warm_start(self, t1_measured: float) -> float:
        """log10 starting point from the algebraic two-level inversion.

        The two-level answer usually sits within a few percent of the
        multilevel one, so the first bracket around it already holds the
        root; FALLBACK_QCEFF is used when no positive closed-form solution
        exists. Deterministic either way.
        """
        residual = 1.0 / t1_measured - self._fixed_pair
        if residual > 0.0:
            q = self._q_ref * self._cap_pair_ref / residual
            if 1e2 < q < 1e9:
                return math.log10(q)
        return math.log10(FALLBACK_QCEFF)

    def invert(self, t1_measured: float) -> float:
        """Root of log t1_model(10**u) - log t1_measured over u = log10(qc_eff).

        The bracket starts at +-BRACKET_STEP decades around the warm start and
        widens geometrically toward the root, clipped to [LOG10_QCEFF_MIN,
        LOG10_QCEFF_MAX]. Raises FitError when no sign change lies within
        those bounds (for instance a t1 longer than the non-capacitive
        channels alone allow); a FitError from a model evaluation propagates.
        """
        log_t1 = math.log(t1_measured)
        memo: dict[float, float] = {}

        def g(u: float) -> float:
            if u not in memo:
                memo[u] = math.log(self.predict_t1(10.0 ** u)) - log_t1
            return memo[u]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u0 = self._warm_start(t1_measured)
            g0 = g(u0)
            if g0 == 0.0:
                return 10.0 ** u0
            # g rises with u, so the root lies above u0 when g0 < 0
            toward = 1.0 if g0 < 0.0 else -1.0
            inner, step = u0, BRACKET_STEP
            while True:
                outer = min(max(u0 + toward * step, LOG10_QCEFF_MIN), LOG10_QCEFF_MAX)
                if toward * g(outer) >= 0.0:
                    break
                if outer in (LOG10_QCEFF_MIN, LOG10_QCEFF_MAX):
                    raise FitError(
                        f"no qc_eff in [1e{LOG10_QCEFF_MIN:g}, 1e{LOG10_QCEFF_MAX:g}] "
                        f"reproduces t1 = {t1_measured:.3e} s (model t1 at the bound "
                        f"is {math.exp(g(outer) + log_t1):.3e} s)"
                    )
                inner, step = outer, 2.0 * step
            u = brentq(g, min(inner, outer), max(inner, outer), xtol=ROOT_XTOL)
        return 10.0 ** u


def two_level_qceff_closed_form(
    t1_measured: float,
    spec: Spectrum,
    res: ResonatorParams,
    env: Environment,
) -> float:
    """Algebraic two-level inversion: solve 1/t1 = Gamma_bg + K/qc_eff.

    The capacitive pair rate at fixed epsilon is exactly proportional to
    1/qc_eff, so the inversion is one division. Serves as the independent
    check on the root-find path.
    """
    bg = background_rate(spec, res, env)
    residual = 1.0 / t1_measured - bg
    if residual <= 0.0:
        raise FitError(
            "measured rate is below the background (non-capacitive) prediction; "
            "no positive qc_eff reproduces it"
        )
    cap_ref = build_mechanism_table(spec, res, env, Mechanism.CAPACITIVE).pair_sum(0, 1)
    return env.qc_eff * cap_ref / residual


def extract_qceff(
    record: T1Record,
    spec: Spectrum,
    res: ResonatorParams,
    env: Environment,
    mode: T1Mode = T1Mode.MULTILEVEL_SIGNAL,
) -> float:
    """Invert one measured record into an effective capacitive quality factor."""
    return QceffInverter(spec, res, env, mode=mode).invert(record.t1)


@dataclass(frozen=True)
class QceffEntry:
    freq: float
    qceff: float
    n_binned: int = 1


@dataclass(frozen=True)
class QceffDistribution:
    """Per-qubit extracted quality factors, the unit of statistical comparison."""

    entries: tuple[QceffEntry, ...]
    epsilon_used: float
    qubit_id: str = ""

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
    """Invert every record of a dataset, in record order."""
    entries = []
    for record in ds.records:
        spec = spec_provider(record.phi_ext)
        q = extract_qceff(record, spec, res, env, mode=mode)
        freq = record.omega01 if record.omega01 is not None else spec.transition_frequency(0, 1)
        entries.append(QceffEntry(freq=float(freq), qceff=q, n_binned=record.n_binned))
    return QceffDistribution(entries=tuple(entries), epsilon_used=env.epsilon,
                             qubit_id=ds.qubit_id)


@dataclass(frozen=True)
class DistributionSummary:
    mean: float
    median: float
    std: float
    iqr: float
    n: int


def summarize(dist: QceffDistribution, allow_singleton: bool = False) -> DistributionSummary:
    """Mean, midpoint median, sample (n-1) std, and interpolated IQR."""
    values = dist.values()
    if values.size == 0:
        raise ValueError("cannot summarize an empty distribution")
    if values.size == 1 and not allow_singleton:
        raise ValueError("standard deviation undefined for a single entry "
                         "(pass allow_singleton=True to report 0)")
    q1, q3 = np.percentile(values, [25.0, 75.0], method="linear")
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return DistributionSummary(
        mean=float(np.mean(values)),
        median=float(np.median(values)),
        std=std,
        iqr=float(q3 - q1),
        n=int(values.size),
    )


@dataclass(frozen=True)
class QubitAnalysisInput:
    """Everything needed to re-run the extraction for one qubit.

    ``spec_provider`` maps a record's phi_ext to its spectrum (a
    ``CachedSpectrumProvider``, typically the one that already served the
    exclusion filter, so no bias is solved twice); it fixes the retained
    levels.
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
    mode: T1Mode = T1Mode.MULTILEVEL_SIGNAL,
    grid: np.ndarray | None = None,
) -> EpsilonFitResult:
    """Frequency exponent minimizing the pooled variance of centered log Q.

    For each trial exponent, every qubit's records are re-inverted; each
    qubit's log10 quality factors are centered on the log of that qubit's
    mean, pooled, and the exponent with the smallest pooled variance wins.
    """
    if not qubit_inputs:
        raise ValueError("need at least one qubit dataset")
    if grid is None:
        grid = np.linspace(-1.0, 1.0, 41)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("the exponent grid is empty")

    # only the capacitive table depends on the exponent: build each record's
    # inverter once, at the first grid point, and re-derive it per exponent
    inverters = []
    for qi in qubit_inputs:
        env0 = replace(qi.env, epsilon=float(grid[0]))
        inverters.append([
            (QceffInverter(qi.spec_provider(r.phi_ext), qi.res, env0, mode=mode), r.t1)
            for r in qi.dataset.records
        ])
    variances = np.empty(grid.size)
    for k, eps in enumerate(grid):
        pooled = []
        for records in inverters:
            values = np.array([inv._with_epsilon(float(eps)).invert(t1) for inv, t1 in records])
            pooled.extend(np.log10(values) - math.log10(float(np.mean(values))))
        variances[k] = float(np.var(pooled))
    best = int(np.argmin(variances))
    variances.setflags(write=False)
    return EpsilonFitResult(epsilon=float(grid[best]), grid=grid, pooled_variance=variances)


@dataclass(frozen=True)
class DephasingRecord:
    phi_ext: float
    gamma_phi_e: float
    slope: float | None = None  # rad/s per Phi0, recomputed when absent


@dataclass(frozen=True)
class DephasingDataset:
    records: tuple[DephasingRecord, ...]
    qubit_id: str = ""


def extract_flux_noise_amplitude(ds: DephasingDataset, params: FluxoniumParams) -> float:
    """sqrt(A_phi) in Phi0/sqrt(Hz) from echo dephasing versus flux slope.

    Fits gamma_phi = |domega01/dPhi| * sqrt(A_phi ln 2) through the origin
    (dephasing must vanish where the slope does). Sweet-spot records carry no
    slope information and are excluded.
    """
    xs, ys = [], []
    for r in ds.records:
        frac = (r.phi_ext % 1.0)
        if abs(frac - 0.5) < SWEET_SPOT_TOL:
            continue
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


def jj_participation(
    junction_area: float,
    c_sigma: float,
    specific_capacitance: float = 49e-15,
) -> float:
    """Junction fraction of the total capacitance; area in um^2, caps in F."""
    p = junction_area * specific_capacitance / c_sigma
    if not 0.0 < p < 1.0:
        raise ValueError(f"participation {p!r} outside (0, 1); check the inputs")
    return p


def map_qjj(qceff: float, p_jj: float, q_other: float = math.inf) -> float:
    """Junction quality factor from 1/Q = P/Q_jj + (1-P)/Q_other."""
    if not 0.0 < p_jj < 1.0:
        raise ValueError(f"p_jj must be in (0, 1), got {p_jj!r}")
    if math.isinf(q_other):
        return p_jj * qceff
    if not q_other > 0.0:
        raise ValueError(f"q_other must be > 0 or infinite, got {q_other!r}")
    inv = 1.0 / qceff - (1.0 - p_jj) / q_other
    if inv <= 0.0:
        raise ValueError("q_other alone already explains the total loss; q_jj undefined")
    return p_jj / inv

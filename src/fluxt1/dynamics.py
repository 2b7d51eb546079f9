"""Multilevel population dynamics, decay-signal synthesis, and T1 extraction.

The per-mechanism rate tables sum into one generator B whose columns conserve
probability; populations evolve as p(tau) = V exp(S tau) V^-1 p(0). The
relaxation time is always extracted by fitting an exponential to the full
multi-mode solution (population of level 1, or the synthesized readout signal
including higher-state resonator pulls), never by picking a single eigenvalue:
the measured protocol fits a decay trace, so the model does too.
``BiasModel`` holds that model at one flux bias. Its ``decay`` is the one
place a decay trace is made, and its ``t1`` the one place a model T1 is
read, for ``predicted_t1``, ``predict-t1`` and the multilevel quality-factor
inversion alike; the two-level inversion reads its 0<->1 ``pair_rate``.

The fit of A exp(-t/T1) + C is a variable projection (Golub & Pereyra,
Inverse Problems 19, R1 (2003)): for a fixed decay rate the model is linear
in (A, C), which the normal equations give directly, so the search is over
the decay rate alone and ends at the root of one scalar gradient.
``rising_root`` brackets such a root and solves it with Brent's method; the
multilevel quality-factor inversion in ``pipeline`` uses it too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter

import numpy as np
from scipy.optimize import brentq

from .constants import H, K_B
from .errors import DominantModeTieError, FitError, NumericalError
from .hamiltonian import FluxBias, FluxoniumParams, Spectrum, diagonalize
from .loss import (
    ANALYSIS_MECHANISMS,
    Environment,
    Mechanism,
    MechanismRateTable,
    build_mechanism_table,
)
from .resonator import ResonatorParams, dressed_response

_EIG_IMAG_RTOL = 1e-9
_PROB_DRIFT_TOL = 1e-9
FIT_RESIDUAL_GATE = 1e-3  # fraction of fitted amplitude, for model-generated traces
# the decay fit searches u = ln(1/T1): its first bracket reaches this far from
# the log-linear estimate and doubles, up to FIT_BRACKET_SPAN either side
FIT_BRACKET_STEP = 0.05
FIT_BRACKET_SPAN = 20.0
# root tolerance in u, i.e. relative in T1: at the gradient's rounding floor
FIT_XTOL = 1e-14
# largest |A| / ptp(signal) of a resolved decay; ordinary model traces stay
# below ~40, while a decay the grid misses needs an amplitude ~1e6 the range
FIT_AMPLITUDE_LIMIT = 1e3


class T1Mode(str, Enum):
    TWO_LEVEL = "two_level"
    MULTILEVEL_POPULATION = "multilevel_population"
    MULTILEVEL_SIGNAL = "multilevel_signal"


@dataclass(frozen=True)
class RateMatrix:
    """Generator of the population master equation with cached eigensystem.

    b[j, i] holds the rate into j from i; diagonals are minus the column
    off-diagonal sums, so columns sum to zero and probability is conserved.
    """

    b: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    n: int
    _vinv: np.ndarray = field(repr=False, default=None)

    @property
    def stationary_index(self) -> int:
        """Index of the unique (near-)zero eigenvalue."""
        mags = np.abs(self.eigenvalues)
        scale = float(mags.max())
        if scale == 0.0:
            raise NumericalError("all eigenvalues vanish; no unique stationary mode")
        near_zero = np.flatnonzero(mags <= 1e-9 * scale)
        if near_zero.size != 1:
            raise NumericalError(
                f"expected exactly one zero eigenvalue, found {near_zero.size} "
                f"within 1e-9 of scale {scale:.3e}"
            )
        return int(near_zero[0])

    def stationary_distribution(self) -> np.ndarray:
        """Zero-mode eigenvector normalized to unit 1-norm (a probability vector)."""
        v0 = np.real(self.eigenvectors[:, self.stationary_index])
        return v0 / v0.sum()

    def mode_coefficients(self, p0: np.ndarray) -> np.ndarray:
        """Expansion coefficients c with p0 = V c."""
        return self._vinv @ np.asarray(p0, dtype=self._vinv.dtype)


def build_rate_matrix(rates: np.ndarray) -> RateMatrix:
    """The master-equation generator of directional rates, decomposed.

    ``rates[i, j]`` is Gamma_{i->j} with every channel summed; the diagonal
    is ignored. The eigensystem is the one ``np.linalg.eig`` returns, real or
    complex; a resolved complex pair (max |Im w| > 1e-9 max |Re w|) warns.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
        raise ValueError(f"rates must be a square matrix, got shape {rates.shape}")
    n = rates.shape[0]
    # a C-ordered copy: the fills below leave the caller's rates alone, and
    # b @ y sums each row contiguously (a transposed view rounds differently)
    b = rates.T.copy()
    np.fill_diagonal(b, 0.0)
    np.fill_diagonal(b, -b.sum(axis=0))

    try:
        w, v = np.linalg.eig(b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"generator eigendecomposition failed: {exc}") from exc
    scale = float(np.max(np.abs(w.real))) or 1.0
    if np.max(np.abs(w.imag)) > _EIG_IMAG_RTOL * scale:
        warnings.warn(
            "generator has a complex eigenpair (mixed-temperature baths can "
            "drive steady-state cycles); keeping complex arithmetic",
            stacklevel=2,
        )
    try:
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvector matrix is singular: {exc}") from exc
    for arr in (b, w, v, vinv):
        arr.setflags(write=False)
    return RateMatrix(b=b, eigenvalues=w, eigenvectors=v, n=n, _vinv=vinv)


def thermal_population(spec: Spectrum, temperature: float) -> np.ndarray:
    """Boltzmann occupation over the retained levels."""
    if not temperature > 0.0:
        raise ValueError(f"temperature must be > 0, got {temperature!r}")
    e = np.asarray(spec.energies) - spec.energies[0]
    weights = np.exp(-H * e / (K_B * temperature))
    return weights / weights.sum()


def invert_computational(p: np.ndarray) -> np.ndarray:
    """Swap the populations of the two computational states."""
    p = np.asarray(p, dtype=float)
    if p.size < 2:
        raise ValueError(f"need at least 2 entries, got {p.size}")
    out = p.copy()
    out[0], out[1] = p[1], p[0]
    return out


@dataclass(frozen=True)
class PopulationTrace:
    populations: np.ndarray  # shape (T, N), rows are probability vectors
    renormalized: bool = False


def evolve(rm: RateMatrix, p0: np.ndarray, times: np.ndarray) -> PopulationTrace:
    """Propagate p(tau) = V exp(S tau) V^-1 p0 on the given time grid.

    Rows are renormalized (and the trace flagged) only if probability drifts
    beyond 1e-9, which signals an ill-conditioned eigenbasis.
    """
    p0 = np.asarray(p0, dtype=float)
    times = np.asarray(times, dtype=float)
    if p0.shape != (rm.n,):
        raise ValueError(f"p0 has shape {p0.shape}, expected ({rm.n},)")
    if abs(p0.sum() - 1.0) > 1e-9 or np.any(p0 < -1e-12):
        raise ValueError("p0 is not a probability vector")
    if np.any(times < 0.0):
        raise ValueError("times must be nonnegative")

    c = rm.mode_coefficients(p0)
    modes = np.exp(np.outer(times, rm.eigenvalues))  # (T, N)
    pops = (modes * c) @ rm.eigenvectors.T
    if np.iscomplexobj(pops):
        if np.max(np.abs(pops.imag)) > 1e-9:
            raise NumericalError("population trace has a non-negligible imaginary part")
        pops = pops.real

    drift = np.abs(pops.sum(axis=1) - 1.0)
    renormalized = bool(np.any(drift > _PROB_DRIFT_TOL))
    if renormalized:
        warnings.warn(
            f"probability drifted by up to {drift.max():.3e}; renormalizing rows",
            stacklevel=2,
        )
        pops = pops / pops.sum(axis=1, keepdims=True)
    pops.setflags(write=False)
    return PopulationTrace(populations=pops, renormalized=renormalized)


@dataclass(frozen=True)
class DecayFit:
    t1: float
    amplitude: float
    offset: float
    residual_rms: float


def rising_root(g, u0: float, step: float, lo: float, hi: float, xtol: float) -> float | None:
    """Root of a function g that rises through zero, searched outward from u0.

    The bracket reaches ``step`` from u0 toward the sign change and doubles
    its reach until g changes sign, clipped to [lo, hi]; ``brentq`` then
    solves it to ``xtol``. Returns None when g keeps its sign up to the bound.
    Each value of g is computed once: ``brentq`` reads the bracket ends again.
    """
    seen: dict[float, float] = {}

    def once(u: float) -> float:
        if u not in seen:
            seen[u] = g(u)
        return seen[u]

    g0 = once(u0)
    if g0 == 0.0:
        return u0
    # g rises with u, so the root lies above u0 when g0 < 0
    toward = 1.0 if g0 < 0.0 else -1.0
    inner = u0
    while True:
        outer = min(max(u0 + toward * step, lo), hi)
        if toward * once(outer) >= 0.0:
            break
        if outer in (lo, hi):
            return None
        inner, step = outer, 2.0 * step
    return brentq(once, min(inner, outer), max(inner, outer), xtol=xtol)


def fit_exponential(times, signal) -> DecayFit:
    """Least-squares fit of A exp(-t/T1) + C by variable projection.

    For a trial decay rate k = 1/T1 the model is linear in (A, C), so both
    follow from the centred normal equations; only k is searched. At that
    inner optimum the gradient of the squared residual in u = ln k is the
    explicit derivative -A k r.(t e) alone (Kaufman, BIT 15, 49 (1975)), and
    the fit is its rising root, bracketed around a log-linear estimate of T1
    and solved to rounding level, so T1 varies smoothly with the signal.

    Raises FitError when the trace cannot determine a decay: fewer than 4
    samples, a constant signal, no optimum within FIT_BRACKET_SPAN of the
    estimate, or an amplitude above FIT_AMPLITUDE_LIMIT times the signal's
    range (a decay the time grid does not resolve).
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(signal, dtype=float)
    if t.size < 4:
        raise FitError(f"need at least 4 samples to fit, got {t.size}")
    y_range = np.ptp(y)
    if y_range == 0.0:
        raise FitError("signal is constant; decay time undefined")

    resid = np.abs(y - y[-1])
    mask = resid > max(1e-3 * (abs(y[0] - y[-1]) or y_range), 1e-300)
    tau0 = (t[-1] - t[0]) / 3.0 if t[-1] > t[0] else 1.0
    if mask.sum() >= 2:
        slope = np.polyfit(t[mask], np.log(resid[mask]), 1)[0]
        if slope < 0.0:
            tau0 = -1.0 / slope

    y_mean = y.mean()
    dy = y - y_mean

    def project(u: float):
        """(A, C, e) minimizing the residual at decay rate k = exp(u)."""
        e = np.exp(-math.exp(u) * t)
        e_mean = e.mean()
        de = e - e_mean
        norm = de @ de
        if not norm > 0.0:
            raise FitError(f"decay time {math.exp(-u):.3e} s is unresolved on the time grid")
        a = (de @ dy) / norm
        return a, y_mean - a * e_mean, e

    def gradient(u: float) -> float:
        a, c, e = project(u)
        g = -a * math.exp(u) * ((a * e + c - y) @ (t * e))
        if not math.isfinite(g):
            raise FitError(f"decay-fit gradient is not finite at T1 = {math.exp(-u):.3e} s")
        return g

    u0 = -math.log(tau0)
    u = rising_root(gradient, u0, FIT_BRACKET_STEP, u0 - FIT_BRACKET_SPAN,
                    u0 + FIT_BRACKET_SPAN, FIT_XTOL)
    if u is None:
        raise FitError(f"no least-squares decay time within a factor e^{FIT_BRACKET_SPAN:g} "
                       f"of the estimate {tau0:.3e} s")
    tau = math.exp(-u)
    if not (math.isfinite(tau) and tau > 0.0):
        raise FitError(f"exponential fit returned unphysical decay time {tau!r}")
    a, c, e = project(u)
    if abs(a) > FIT_AMPLITUDE_LIMIT * y_range:
        raise FitError(f"fitted amplitude {a:.3e} exceeds {FIT_AMPLITUDE_LIMIT:g} times the "
                       f"signal range {y_range:.3e}; the time grid does not resolve the decay")
    residual_rms = float(np.sqrt(np.mean((a * e + c - y) ** 2)))
    return DecayFit(t1=tau, amplitude=float(a), offset=float(c), residual_rms=residual_rms)


@dataclass(frozen=True)
class ExponentialnessReport:
    """How far the initial state lies outside the stationary + dominant modes.

    m is the Euclidean norm of that residual; zero means the decay is exactly
    single exponential (always the case for two levels).
    """

    m: float
    dominant_index: int


def dominant_mode(rm: RateMatrix, p0: np.ndarray) -> tuple[int, np.ndarray]:
    """(index, coefficients) of the non-stationary mode with greatest |c|^2.

    Exact ties are an error: they indicate degenerate dynamics the caller
    should inspect rather than silently break.
    """
    c = rm.mode_coefficients(p0)
    s_idx = rm.stationary_index
    overlaps = np.abs(c) ** 2
    candidates = [k for k in range(rm.n) if k != s_idx]
    order = sorted(candidates, key=lambda k: overlaps[k], reverse=True)
    k_max = order[0]
    if len(order) > 1:
        top, runner = overlaps[order[0]], overlaps[order[1]]
        if top > 0.0 and (top - runner) <= 1e-12 * top:
            tied = [k for k in order if abs(overlaps[k] - top) <= 1e-12 * top]
            raise DominantModeTieError(
                f"dominant decay mode is degenerate between indices {tied}",
                tied_indices=tied,
            )
    return k_max, c


def exponentialness(rm: RateMatrix, p0: np.ndarray) -> ExponentialnessReport:
    """Residual of p0 outside the stationary and dominant decay modes."""
    p0 = np.asarray(p0, dtype=float)
    k_max, c = dominant_mode(rm, p0)
    s_idx = rm.stationary_index
    v = rm.eigenvectors
    delta = p0 - c[s_idx] * v[:, s_idx] - c[k_max] * v[:, k_max]
    # p0 is real; only a complex dominant mode leaves an imaginary part
    return ExponentialnessReport(m=float(np.linalg.norm(delta.real)), dominant_index=int(k_max))


def default_time_grid(rm: RateMatrix, p0: np.ndarray, n_points: int = 51) -> np.ndarray:
    """Log-spaced grid spanning [T/50, 8T], T from the dominant decay mode.

    A dominant-mode tie (degenerate eigenvalue pair) is harmless here: the
    grid only needs a decay rate, so the slowest tied rate brackets the trace
    safely.
    """
    try:
        k_max, _ = dominant_mode(rm, p0)
        rate = -float(np.real(rm.eigenvalues[k_max]))
    except DominantModeTieError as err:
        rate = min(-float(np.real(rm.eigenvalues[k])) for k in err.tied_indices)
    if rate <= 0.0:
        raise NumericalError("dominant mode does not decay; cannot scale a time grid")
    t_guess = 1.0 / rate
    return np.logspace(math.log10(t_guess / 50.0), math.log10(8.0 * t_guess), n_points)


def heralded_misassignment_error(times, populations, fit_p1: DecayFit) -> tuple[float, float]:
    """Relative T1 error from misassigning higher-level population in a decay
    trace (``BiasModel.decay``), given ``fit_p1``, the trace's level-1 fit.

    Misassignment to the ground state leaves the level-1 decay untouched, so
    that error is identically zero. Misassignment to the excited state fits
    p1 + sum_{i>=2} p_i instead of p1 and reports (T1 - T1') / T1.
    """
    lumped = populations[:, 1] + populations[:, 2:].sum(axis=1)
    fit_lumped = fit_exponential(times, lumped)
    return 0.0, float((fit_p1.t1 - fit_lumped.t1) / fit_p1.t1)


def two_level_total_rate(
    spec: Spectrum,
    res: ResonatorParams | None,
    env: Environment,
    mechanisms=ANALYSIS_MECHANISMS,
) -> float:
    """Sum over mechanisms of the symmetrized 0<->1 rate, from freshly built
    tables: the reference route that ``BiasModel.pair_rate`` must match bit
    for bit, for ``two_level_qceff_closed_form`` and the tests."""
    total = 0.0
    for m in mechanisms:
        table = build_mechanism_table(spec, res, env, m)
        total += table.pair_sum(0, 1)
    return total


# every Environment field but the two of the capacitive quality factor: with
# the resonator they key the rate data a spectrum's models share, so a field
# added later joins the key and can never make two environments share wrongly
_bath = attrgetter(*(f.name for f in fields(Environment) if f.name not in ("qc_eff", "epsilon")))


class BiasModel:
    """The relaxation model at one flux bias, read in any mode at any qc_eff.

    Every model built on one spectrum with one resonator and bath (every
    ``Environment`` field but qc_eff and epsilon) shares its rate data in
    ``spec.memo``, whatever its qc_eff or frequency exponent: each channel's
    table, built once with its exponent-free ``ChannelPairs``, the
    non-capacitive 0<->1 pair rates, the computationally inverted thermal
    state ``p0`` and the readout ``weights`` (each state's rotated S21 at the
    ground-state dressed probe, real part). The exponent enters only the
    capacitive channel, as the factor 1/Q'(f_ij) on its split pairs, which
    the model evaluates from the shared pairs, so a model at another
    exponent builds no table. At a fixed exponent the capacitive rates scale
    exactly as 1/qc_eff, so a trial qc_eff rescales them by
    env.qc_eff / qc_eff.
    """

    def __init__(self, spec: Spectrum, res: ResonatorParams | None, env: Environment):
        self.spec = spec
        self.res = res
        self.env = env
        self._memo = spec.memo.setdefault((res, _bath(env)), {})

    def _memoized(self, key, make):
        """The bias's shared value under key, made on first read."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = make()
        return value

    def _table(self, mechanism: Mechanism) -> MechanismRateTable:
        """The channel's table as first built for the bias."""
        return self._memoized(mechanism, lambda: build_mechanism_table(
            self.spec, self.res, self.env, mechanism))

    def _pair(self, mechanism: Mechanism) -> float:
        """One channel's 0<->1 pair rate at env.qc_eff and env.epsilon."""
        if mechanism == Mechanism.CAPACITIVE:
            return self._table(mechanism).pairs.pair_sum(self.env)
        return self._memoized((mechanism, "pair"),
                              lambda: self._table(mechanism).pair_sum(0, 1))

    def _rates(self, mechanism: Mechanism) -> np.ndarray:
        """One channel's rate table at env.qc_eff and env.epsilon."""
        table = self._table(mechanism)
        if mechanism != Mechanism.CAPACITIVE:
            return table.rates
        return self._memoized((mechanism, self.env.qc_eff, self.env.epsilon),
                              lambda: table.pairs.table(self.env).rates)

    @property
    def p0(self) -> np.ndarray:
        return self._memoized("p0", lambda: invert_computational(
            thermal_population(self.spec, self.env.t_qubit)))

    @property
    def weights(self) -> np.ndarray:
        return self._memoized("weights", lambda: dressed_response(
            self.spec, self.res).rotated_points().real)

    def pair_rate(self, mechanisms=ANALYSIS_MECHANISMS, qc_eff: float | None = None) -> float:
        """Sum over mechanisms of the symmetrized 0<->1 rate, in
        two_level_total_rate's order, so at env.qc_eff both agree bit for bit."""
        scale = 1.0 if qc_eff is None else self.env.qc_eff / qc_eff
        total = 0.0
        for m in mechanisms:
            pair = self._pair(m)
            total += pair * scale if m == Mechanism.CAPACITIVE else pair
        return total

    def generator(self, mechanisms=ANALYSIS_MECHANISMS, qc_eff: float | None = None) -> RateMatrix:
        """The selected channels summed into one rate matrix, at qc_eff if given."""
        if not mechanisms:
            raise ValueError("need at least one mechanism")
        scale = 1.0 if qc_eff is None else self.env.qc_eff / qc_eff
        total = np.zeros((self.spec.n_levels,) * 2)
        for m in mechanisms:
            rates = self._rates(m)
            total = total + (rates * scale if m == Mechanism.CAPACITIVE else rates)
        return build_rate_matrix(total)

    def decay(self, mechanisms=ANALYSIS_MECHANISMS, qc_eff: float | None = None,
              n_points: int = 51) -> tuple[np.ndarray, np.ndarray] | None:
        """(times, populations) of p0 relaxing under the selected channels, on
        the n_points grid the dominant mode sets; None when no path of nonzero
        rates leads from level 1 to level 0 (every rate zero, or a parity split)."""
        rm = self.generator(mechanisms, qc_eff)
        if not np.linalg.matrix_power(rm.b != 0.0, rm.n - 1)[0, 1]:
            return None
        times = default_time_grid(rm, self.p0, n_points)
        return times, evolve(rm, self.p0, times).populations

    def t1(self, mode: T1Mode = T1Mode.MULTILEVEL_SIGNAL, mechanisms=ANALYSIS_MECHANISMS,
           qc_eff: float | None = None) -> float:
        """Model T1 (s) from the selected channels, at qc_eff if given.

        two_level inverts the sum of 0<->1 rates; the multilevel modes fit an
        exponential to the p1 decay or to the readout signal |p . weights| on
        the grid the dominant mode sets, and warn when the fit residual
        exceeds FIT_RESIDUAL_GATE of the amplitude. A zero 0<->1 rate sum, or
        no path of nonzero rates from level 1 to level 0, gives inf.
        """
        mode = T1Mode(mode)
        if mode is T1Mode.TWO_LEVEL:
            rate = self.pair_rate(mechanisms, qc_eff)
            return 1.0 / rate if rate else math.inf
        trace = self.decay(mechanisms, qc_eff)
        if trace is None:
            return math.inf
        times, populations = trace
        if mode is T1Mode.MULTILEVEL_POPULATION:
            signal = populations[:, 1]
        else:
            signal = np.abs(populations @ self.weights)
        fit = fit_exponential(times, signal)
        if abs(fit.amplitude) > 0 and fit.residual_rms > FIT_RESIDUAL_GATE * abs(fit.amplitude):
            # static message so repeated sweeps warn once per call site
            warnings.warn(
                "decay fit residual exceeds the model-signal gate "
                f"({FIT_RESIDUAL_GATE:g} of amplitude)",
                stacklevel=2,
            )
        return fit.t1


def predicted_t1(
    params: FluxoniumParams,
    res: ResonatorParams,
    env: Environment,
    bias: FluxBias,
    mode: T1Mode = T1Mode.MULTILEVEL_SIGNAL,
    mechanisms=ANALYSIS_MECHANISMS,
    n_levels: int = 6,
) -> float:
    """Model T1 (s) at one flux bias: ``BiasModel.t1`` on its n_levels
    spectrum, which the two-level mode reads through its 0<->1 rates."""
    return BiasModel(diagonalize(params, bias, n_levels=n_levels), res, env).t1(mode, mechanisms)

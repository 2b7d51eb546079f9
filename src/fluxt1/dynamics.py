"""Multilevel population dynamics, decay-signal synthesis, and T1 extraction.

The per-mechanism rate tables sum into one generator B whose columns conserve
probability; populations evolve as p(tau) = V exp(S tau) V^-1 p(0). The
relaxation time is always extracted by fitting an exponential to the full
multi-mode solution (population of level 1, or the synthesized readout signal
including higher-state resonator pulls), never by picking a single eigenvalue:
the measured protocol fits a decay trace, so the model does too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.optimize import curve_fit

from .constants import H, K_B
from .errors import DominantModeTieError, FitError, NumericalError
from .hamiltonian import FluxBias, FluxoniumParams, Spectrum, diagonalize
from .loss import ANALYSIS_MECHANISMS, Environment, MechanismRateTable, build_mechanism_table
from .resonator import ResonatorParams, dressed_response

_EIG_IMAG_RTOL = 1e-9
_PROB_DRIFT_TOL = 1e-9
FIT_RESIDUAL_GATE = 1e-3  # fraction of fitted amplitude, for model-generated traces
# largest relative T1 change the Newton polish of a fit may make; lm's own
# scatter is ~1e-8
_POLISH_MAX_STEP = 1e-6


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
        v0 = np.real_if_close(self.eigenvectors[:, self.stationary_index])
        return np.real(v0) / np.real(v0).sum()

    def mode_coefficients(self, p0: np.ndarray) -> np.ndarray:
        """Expansion coefficients c with p0 = V c."""
        return self._vinv @ np.asarray(p0, dtype=self._vinv.dtype)


def build_rate_matrix(tables: list[MechanismRateTable]) -> RateMatrix:
    """Sum mechanism tables into the master-equation generator and decompose it."""
    if not tables:
        raise ValueError("need at least one mechanism table")
    n = tables[0].n
    for t in tables:
        if t.n != n:
            raise ValueError(f"table dimension mismatch: {t.n} != {n}")
    total = np.zeros((n, n))
    for t in tables:
        total = total + t.rates
    b = total.T.copy()
    np.fill_diagonal(b, 0.0)
    np.fill_diagonal(b, -b.sum(axis=0))

    try:
        w_raw, v_raw = np.linalg.eig(b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"generator eigendecomposition failed: {exc}") from exc
    scale = float(np.max(np.abs(w_raw.real))) if np.max(np.abs(w_raw.real)) > 0 else 1.0
    w, v = w_raw, v_raw
    if np.max(np.abs(w_raw.imag)) <= _EIG_IMAG_RTOL * scale:
        # a borderline conjugate pair can leave v.real rank-deficient even
        # when the imaginary parts are negligible; fall back to complex then
        w, v = w_raw.real, v_raw.real
        cond = np.linalg.cond(v)
        if not np.isfinite(cond) or cond > 1e12:
            w, v = w_raw, v_raw
    else:
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
    times: np.ndarray
    populations: np.ndarray  # shape (T, N), rows are probability vectors
    initial: np.ndarray
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
    return PopulationTrace(times=times, populations=pops, initial=p0, renormalized=renormalized)


@dataclass(frozen=True)
class DecayFit:
    t1: float
    amplitude: float
    offset: float
    residual_rms: float


def fit_exponential(times, signal) -> DecayFit:
    """Least-squares fit of A exp(-t/T1) + C.

    Initial guesses come from the tail value (offset) and a log-linear
    regression on the offset-subtracted decay; Levenberg-Marquardt finds the
    optimum and a Newton step on the gradient (``_polish_fit``) settles it to
    rounding level, so T1 varies smoothly with the signal.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(signal, dtype=float)
    if t.size < 4:
        raise FitError(f"need at least 4 samples to fit, got {t.size}")
    if np.ptp(y) == 0.0:
        raise FitError("signal is constant; decay time undefined")

    c0 = y[-1]
    a0 = y[0] - c0
    if a0 == 0.0:
        a0 = np.ptp(y) if y[0] >= np.mean(y) else -np.ptp(y)
    resid = np.abs(y - c0)
    mask = resid > max(1e-3 * abs(a0), 1e-300)
    tau0 = (t[-1] - t[0]) / 3.0 if t[-1] > t[0] else 1.0
    if mask.sum() >= 2:
        slope = np.polyfit(t[mask], np.log(resid[mask]), 1)[0]
        if slope < 0.0:
            tau0 = -1.0 / slope

    def model(tt, a, tau, c):
        return a * np.exp(-tt / tau) + c

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # lm explores tau<0 transiently
            popt, _ = curve_fit(
                model, t, y, p0=[a0, tau0, c0], method="lm",
                maxfev=20000, xtol=1e-15, ftol=1e-15, gtol=1e-15,
            )
    except RuntimeError as exc:
        raise FitError(f"exponential fit did not converge: {exc}") from exc
    tau = popt[1]
    if not (math.isfinite(tau) and tau > 0.0):
        raise FitError(f"exponential fit returned unphysical decay time {tau!r}")
    popt = _polish_fit(t, y, popt)
    a, tau, c = popt
    residual_rms = float(np.sqrt(np.mean((model(t, *popt) - y) ** 2)))
    return DecayFit(t1=float(tau), amplitude=float(a), offset=float(c), residual_rms=residual_rms)


def _polish_fit(t: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """One Newton step on the gradient of sum((a exp(-t/tau) + c - y)**2).

    lm stops on relative changes of the squared residual, which leaves the
    parameters short of the optimum (T1 scattered by ~1e-8 relative even at
    a 1e-15 tolerance); the fitted T1 then jitters as its inputs vary
    smoothly, and any root find through it (the quality-factor inversion)
    inherits the jitter. With the exact Hessian the step converges
    quadratically, so one takes lm's answer to rounding level. p is returned
    unchanged if the step fails, moves T1 by more than _POLISH_MAX_STEP
    relative, or fits worse.
    """
    a, tau, c = p
    e = np.exp(-t / tau)
    r = a * e + c - y
    de = t / tau**2 * e  # d e / d tau
    jac = np.array([e, a * de, np.ones_like(t)])
    hess = jac @ jac.T
    hess[0, 1] += r @ de
    hess[1, 0] = hess[0, 1]
    hess[1, 1] += r @ (a * de * (t / tau**2 - 2.0 / tau))
    # Jacobi scaling: the columns differ by the decay rate's magnitude
    s = np.sqrt(np.abs(np.diag(hess)))
    try:
        q = p + np.linalg.solve(hess / np.outer(s, s), -(jac @ r) / s) / s
    except np.linalg.LinAlgError:
        return p
    # a larger move means lm stopped in a flat valley where T1 is not
    # determined by the data (the grid misses the decay); leave that alone
    if not (np.all(np.isfinite(q)) and abs(q[1] - tau) <= _POLISH_MAX_STEP * tau):
        return p
    r_new = q[0] * np.exp(-t / q[1]) + q[2] - y
    # equal up to rounding at an optimum, so allow for it
    return q if r_new @ r_new <= (r @ r) * (1.0 + 1e-9) else p


@dataclass(frozen=True)
class ExponentialnessReport:
    """How far the initial state lies outside the stationary + dominant modes.

    m is the Euclidean norm of delta; zero means the decay is exactly single
    exponential (always the case for two levels).
    """

    m: float
    delta: np.ndarray
    dominant_index: int
    dominant_rate: float


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
    delta = np.real_if_close(delta, tol=1000)
    if np.iscomplexobj(delta):
        delta = delta.real
    m = float(np.linalg.norm(delta))
    rate = float(-np.real(rm.eigenvalues[k_max]))
    delta.setflags(write=False)
    return ExponentialnessReport(m=m, delta=delta, dominant_index=int(k_max), dominant_rate=rate)


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


def simulate_t1_signal(
    rm: RateMatrix,
    spec: Spectrum,
    res: ResonatorParams,
    env: Environment,
    times: np.ndarray,
) -> tuple[PopulationTrace, np.ndarray]:
    """Synthesize the dispersive decay signal s(tau).

    Starts from the computationally inverted thermal state, evolves it, and
    weights each state's population by the real part of its rotated S21 at
    the ground-state dressed probe: s = |sum_i p_i Re S21_rot,i|.
    """
    if len(times) == 0:
        raise ValueError("times must be nonempty")
    p0 = invert_computational(thermal_population(spec, env.t_qubit))
    trace = evolve(rm, p0, np.asarray(times, dtype=float))
    response = dressed_response(spec, res)
    weights = response.rotated_points().real
    signal = np.abs(trace.populations @ weights)
    return trace, signal


def heralded_misassignment_error(
    rm: RateMatrix,
    spec: Spectrum,
    env: Environment,
    times: np.ndarray | None = None,
) -> tuple[float, float]:
    """Relative T1 error from misassigning higher-level population.

    Misassignment to the ground state leaves the level-1 decay untouched, so
    that error is identically zero. Misassignment to the excited state fits
    p1 + sum_{i>=2} p_i instead of p1 and reports (T1 - T1') / T1.
    """
    p0 = invert_computational(thermal_population(spec, env.t_qubit))
    if times is None:
        times = default_time_grid(rm, p0)
    trace = evolve(rm, p0, np.asarray(times, dtype=float))
    p1 = trace.populations[:, 1]
    fit_clean = fit_exponential(trace.times, p1)
    lumped = p1 + trace.populations[:, 2:].sum(axis=1)
    fit_lumped = fit_exponential(trace.times, lumped)
    to_excited = (fit_clean.t1 - fit_lumped.t1) / fit_clean.t1
    return 0.0, float(to_excited)


def build_generator(
    spec: Spectrum,
    res: ResonatorParams | None,
    env: Environment,
    mechanisms=ANALYSIS_MECHANISMS,
) -> RateMatrix:
    """Mechanism tables summed into one rate matrix."""
    tables = [build_mechanism_table(spec, res, env, m) for m in mechanisms]
    return build_rate_matrix(tables)


def two_level_total_rate(
    spec: Spectrum,
    res: ResonatorParams | None,
    env: Environment,
    mechanisms=ANALYSIS_MECHANISMS,
) -> float:
    """Sum over mechanisms of the symmetrized 0<->1 rate."""
    total = 0.0
    for m in mechanisms:
        table = build_mechanism_table(spec, res, env, m)
        total += table.pair_sum(0, 1)
    return total


def predicted_t1(
    params: FluxoniumParams,
    res: ResonatorParams,
    env: Environment,
    bias: FluxBias,
    mode: T1Mode = T1Mode.MULTILEVEL_SIGNAL,
    mechanisms=ANALYSIS_MECHANISMS,
    n_levels: int = 6,
    times: np.ndarray | None = None,
    spec: Spectrum | None = None,
) -> float:
    """Model T1 (s) at one flux bias.

    two_level inverts the simple sum of 0<->1 rates; the multilevel modes fit
    an exponential to the p1 decay or to the synthesized readout signal. A
    precomputed ``spec`` with at least the levels the mode needs (2 for
    two_level, else ``n_levels``) is sliced to them instead of solving again.
    """
    mode = T1Mode(mode)
    need = 2 if mode is T1Mode.TWO_LEVEL else n_levels
    if spec is None or spec.n_levels < need:
        spec = diagonalize(params, bias, n_levels=need)
    spec = spec.lowest(need)
    if mode is T1Mode.TWO_LEVEL:
        return 1.0 / two_level_total_rate(spec, res, env, mechanisms)

    rm = build_generator(spec, res, env, mechanisms)
    p0 = invert_computational(thermal_population(spec, env.t_qubit))
    if times is None:
        times = default_time_grid(rm, p0)
    if mode is T1Mode.MULTILEVEL_POPULATION:
        trace = evolve(rm, p0, times)
        fit = fit_exponential(trace.times, trace.populations[:, 1])
    else:
        _, signal = simulate_t1_signal(rm, spec, res, env, times)
        fit = fit_exponential(times, signal)
    if abs(fit.amplitude) > 0 and fit.residual_rms > FIT_RESIDUAL_GATE * abs(fit.amplitude):
        # static message so repeated sweeps warn once per call site
        warnings.warn(
            "decay fit residual exceeds the model-signal gate "
            f"({FIT_RESIDUAL_GATE:g} of amplitude)",
            stacklevel=2,
        )
    return fit.t1

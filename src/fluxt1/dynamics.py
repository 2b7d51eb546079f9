"""Multilevel population dynamics, decay-signal synthesis, and T1 extraction.

The per-mechanism rate tables sum into one generator B whose columns conserve
probability, so p_0 = 1 - sum_{i>=1} p_i and x = p[1:] relaxes under the
deflated generator as x* + V exp(S tau) V^-1 (x(0) - x*) (``RateMatrix``). The
relaxation time is always extracted by fitting an exponential to the full
multi-mode solution (population of level 1, or the synthesized readout signal
including higher-state resonator pulls), never by picking a single eigenvalue:
the measured protocol fits a decay trace, so the model does too.

Every step takes a stack: ``build_rate_matrix``, ``default_time_grid``,
``evolve`` and ``fit_exponential`` accept leading batch axes, gufunc-style,
and an unstacked call is the zero-axis case. A member that fails stores its
exception in the call's ``errors``, an object array of the batch shape, and
reads nan; without ``errors`` the first failing member's exception is raised,
so an unstacked call raises as it always has.
``multilevel_t1`` runs the multilevel model over a stack of summed rate
tables: each member relaxes once for every mode, and all of the stack's
traces are fitted in one call. ``BiasModel`` holds the model at one flux
bias; ``model_t1`` reads a stack of (model, mechanisms) members in any modes,
the two-level one through the 0<->1 ``pair_rate``, the multilevel ones as one
``multilevel_t1`` stack, and ``BiasModel.decay`` and ``BiasModel.t1`` are
stacks of one. The one mode-level fact the model reads is
the dominant decay rate, which sets each trace's time grid
(``default_time_grid``). A trace the model keeps but doubts, for a complex
generator eigenpair, an eigenbasis that misses the initial state or a decay
fit above FIT_RESIDUAL_GATE, warns with ``ModelTraceWarning``: a caller that
evaluates many trial models silences that type, and no other warning.

The fit of A exp(-t/T1) + C is a variable projection (Golub & Pereyra,
Inverse Problems 19, R1 (2003)): for a fixed decay rate the model is linear
in (A, C), which the normal equations give directly, so the search is over
the decay rate alone and ends at the root of one scalar gradient.
``rising_root`` finds such roots for a whole stack in lockstep: each member
brackets its own root, then shrinks the bracket by Chandrupatla's safeguarded
inverse-quadratic step (Adv. Eng. Softw. 28, 145 (1997)) until it meets its
own tolerance. The multilevel quality-factor inversion in ``pipeline`` uses
it too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter

import numpy as np

from .constants import H, K_B
from .errors import FitError, FluxT1Error, ModelTraceWarning, NumericalError
from .hamiltonian import FluxBias, FluxoniumParams, Spectrum, diagonalize
from .loss import (
    ANALYSIS_MECHANISMS,
    ChannelPairs,
    Environment,
    Mechanism,
    build_mechanism_table,
)
from .resonator import ResonatorParams, dressed_response

_EIG_IMAG_RTOL = 1e-9
_BASIS_MISS_TOL = 1e-9
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
# relative part of rising_root's tolerance, as in brentq: four ulps of the root
_ROOT_RTOL = 4.0 * np.finfo(float).eps


class T1Mode(str, Enum):
    TWO_LEVEL = "two_level"
    MULTILEVEL_POPULATION = "multilevel_population"
    MULTILEVEL_SIGNAL = "multilevel_signal"


def _slots(errors, shape: tuple) -> np.ndarray:
    """The flat per-member error slots of a stacked call over ``shape``: a view
    of ``errors``, or fresh slots when the call is to raise instead."""
    if errors is None:
        return np.full(math.prod(shape), None, dtype=object)
    if errors.shape != shape or not errors.flags.c_contiguous:
        raise ValueError(f"errors must be a contiguous array of shape {shape}, "
                         f"got {errors.shape}")
    return errors.reshape(-1)


def _raise_first(slots) -> None:
    """Raise the first failure of a stacked call that was given no ``errors``."""
    for err in slots:
        if err is not None:
            raise err


def _live(slots) -> np.ndarray:
    """Flat indices of the members that have not failed."""
    return np.equal(slots, None).nonzero()[0]


@dataclass(frozen=True)
class RateMatrix:
    """Generators of the population master equation with their decay modes'
    eigensystems, one per member of a stack (the leading axes of ``b``).

    b[..., j, i] holds the rate into j from i; diagonals are minus the column
    off-diagonal sums, so columns sum to zero and p_0 = 1 - sum_{i>=1} p_i.
    x = p[1:] obeys dx/dt = B' x + b[1:, 0], and the N - 1 eigenvalues of the
    deflated B' = b[1:, 1:] - b[1:, 0] 1^T are exactly the decay eigenvalues
    of b (W. J. Stewart, Introduction to the Numerical Solution of Markov
    Chains (1994), ch. 1-2). ``stationary`` is x* = -B'^-1 b[1:, 0]; each
    eigenvector v is scaled so that the full one, [-sum(v); v], has unit norm.
    """

    b: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    stationary: np.ndarray
    _vinv: np.ndarray = field(repr=False, default=None)

    def __getitem__(self, members) -> RateMatrix:
        """The generators of the selected members of a stack."""
        return RateMatrix(*(getattr(self, f.name)[members] for f in fields(self)))

    def mode_coefficients(self, p0: np.ndarray) -> np.ndarray:
        """Expansion coefficients c with p0[1:] - x* = V c, per member."""
        x0 = np.asarray(p0, dtype=float)[..., 1:] - self.stationary
        return (self._vinv @ x0[..., None])[..., 0]


def _per_member(solve, a: np.ndarray, slots: np.ndarray, failure: str):
    """``solve`` (eig, inv, or a linear solve, where a lone member broadcasts
    against every right-hand side) over a stack of matrices. If it fails,
    each member is solved alone: a failing one stores a NumericalError in its
    slot and is solved as the identity, so its neighbours are unaffected."""
    try:
        return solve(a)
    except np.linalg.LinAlgError:
        pass
    a = a.copy()
    for k, member in enumerate(a.reshape(-1, *a.shape[-2:])):
        try:
            solve(member)
        except np.linalg.LinAlgError as exc:
            slots[k] = NumericalError(f"{failure}: {exc}")
            member[...] = np.eye(a.shape[-1])
    return solve(a)


def _reaches_ground(rates: np.ndarray) -> np.ndarray:
    """Whether a path of nonzero rates[..., i, j] = Gamma_{i->j} leads from
    each level to level 0: an (..., N) array, read from the pattern alone."""
    linked = (rates != 0.0) | np.eye(rates.shape[-1], dtype=bool)
    return np.linalg.matrix_power(linked, rates.shape[-1] - 1)[..., :, 0]


def build_rate_matrix(rates: np.ndarray, errors=None) -> RateMatrix:
    """The master-equation generators of a stack of directional rates, decomposed.

    ``rates[..., i, j]`` is Gamma_{i->j} with every channel summed; the
    diagonal is ignored. The eigensystems are the ones ``np.linalg.eig``
    returns for the deflated stack: real, or complex for every member when one
    is; a member with a resolved complex pair (max |Im w| > 1e-9 max |Re w|)
    warns. A member with a level that no path of nonzero rates leads from to
    level 0 (a reducible chain, told from its rates' pattern) fails and holds
    the identity's eigensystem, as does one whose decomposition fails.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.ndim < 2 or rates.shape[-1] != rates.shape[-2]:
        raise ValueError(f"rates must be a square matrix or a stack of them, "
                         f"got shape {rates.shape}")
    n = rates.shape[-1]
    slots = _slots(errors, rates.shape[:-2])
    diag = np.arange(n)
    # a C-ordered copy, so the fills below leave the caller's rates alone
    b = np.swapaxes(rates, -1, -2).copy()
    b[..., diag, diag] = 0.0
    b[..., diag, diag] = -b.sum(axis=-2)

    deflated = b[..., 1:, 1:] - b[..., 1:, :1]
    stuck = ~_reaches_ground(rates).reshape(-1, n).all(axis=1)
    for k in np.flatnonzero(stuck):
        slots[k] = NumericalError("reducible generator: a level has no path of nonzero "
                                  "rates to level 0")
    deflated.reshape(-1, n - 1, n - 1)[stuck] = np.eye(n - 1)
    w, v = _per_member(np.linalg.eig, deflated, slots, "generator eigendecomposition failed")
    re = np.abs(w.real).max(axis=-1).reshape(-1)
    im = np.abs(w.imag).max(axis=-1).reshape(-1)
    for _ in np.flatnonzero(im > _EIG_IMAG_RTOL * np.where(re > 0.0, re, 1.0)):
        warnings.warn("generator has a complex eigenpair (mixed-temperature baths can "
                      "drive steady-state cycles); keeping complex arithmetic",
                      ModelTraceWarning, stacklevel=2)
    v = v / np.sqrt(np.abs(v.sum(axis=-2, keepdims=True)) ** 2 + 1.0)
    vinv = _per_member(np.linalg.inv, v, slots, "eigenvector matrix is singular")
    x = -_per_member(lambda a: np.linalg.solve(a, b[..., 1:, :1]), deflated, slots,
                     "deflated generator is singular")[..., 0]
    for arr in (b, w, v, x, vinv):
        arr.setflags(write=False)
    if errors is None:
        _raise_first(slots)
    return RateMatrix(b=b, eigenvalues=w, eigenvectors=v, stationary=x, _vinv=vinv)


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


def evolve(rm: RateMatrix, p0: np.ndarray, times: np.ndarray, errors=None) -> np.ndarray:
    """Propagate each member from p0 on its time grid: p = [1 - sum(x), x]
    with x(tau) = x* + V exp(S tau) c and c = V^-1 (p0[1:] - x*).

    p0 is (..., N) and times (..., T) over the generators' batch axes; the
    populations come back write-locked, (..., T, N), each row summing to one
    by construction. A member whose V c misses p0[1:] - x* by more than 1e-9,
    which signals an ill-conditioned eigenbasis, warns (``ModelTraceWarning``);
    one whose trace keeps an imaginary part above 1e-9 fails.
    """
    shape = rm.eigenvalues.shape[:-1]
    p0 = np.asarray(p0, dtype=float)
    times = np.asarray(times, dtype=float)
    if p0.shape != rm.b.shape[:-1]:
        raise ValueError(f"p0 has shape {p0.shape}, expected {rm.b.shape[:-1]}")
    if np.any(np.abs(p0.sum(axis=-1) - 1.0) > 1e-9) or np.any(p0 < -1e-12):
        raise ValueError("p0 is not a probability vector")
    if times.ndim == 0:
        raise ValueError("times must have a time axis")
    times = np.broadcast_to(times, shape + times.shape[-1:])
    if np.any(times < 0.0):
        raise ValueError("times must be nonnegative")
    slots = _slots(errors, shape)

    c = rm.mode_coefficients(p0)
    miss = np.abs((rm.eigenvectors @ c[..., None])[..., 0] - (p0[..., 1:] - rm.stationary))
    miss = miss.max(axis=-1).reshape(-1)
    modes = times[..., :, None] * rm.eigenvalues[..., None, :]  # (..., T, N - 1)
    np.exp(modes, out=modes)
    modes *= c[..., None, :]
    x = modes @ np.swapaxes(rm.eigenvectors, -1, -2)
    if np.iscomplexobj(x):
        leak = np.abs(x.imag).max(axis=(-2, -1)).reshape(-1)
        for k in np.flatnonzero(leak > 1e-9):
            slots[k] = NumericalError("population trace has a non-negligible imaginary part")
    x = x.real + rm.stationary[..., None, :]
    for k in _live(slots):
        if miss[k] > _BASIS_MISS_TOL:
            warnings.warn(f"eigenbasis misses the initial state by {miss[k]:.3e} at t = 0",
                          ModelTraceWarning, stacklevel=2)
    pops = np.concatenate([1.0 - x.sum(axis=-1, keepdims=True), x], axis=-1)
    pops.setflags(write=False)
    if errors is None:
        _raise_first(slots)
    return pops


@dataclass(frozen=True)
class DecayFit:
    """The fitted A exp(-t/T1) + C: arrays over a stack, floats for one trace."""

    t1: float | np.ndarray
    amplitude: float | np.ndarray
    offset: float | np.ndarray
    residual_rms: float | np.ndarray


def rising_root(g, u0, step, lo, hi, xtol: float) -> np.ndarray:
    """Roots of a stack of functions that rise through zero, each searched
    outward from its own entry of the 1-D array u0, all in lockstep.

    ``g(u, members)`` returns the values at the points u of the functions of
    ``members`` (flat indices into the stack), nan for a member whose
    evaluation failed. A member's bracket reaches ``step`` (one for all, or
    one per member) from u0 toward its sign change and doubles its reach
    until g changes sign, clipped to its [lo, hi]. Chandrupatla's step then
    shrinks the bracket: a secant first, inverse quadratic interpolation
    where the last three points allow it, bisection otherwise, and never
    closer than the tolerance to an end. A member stops once its bracket is
    narrower than xtol + 4 eps |u|, at the secant root of that last bracket,
    or at a point where g vanishes. Each round evaluates g once, at one point
    of every member still searching. A member whose g keeps its sign up to
    the bound, or fails, has no root: nan.
    """
    start = np.asarray(u0, dtype=float)
    who = np.arange(start.size)
    lo = np.asarray(lo, dtype=float) + np.zeros(start.size)
    hi = np.asarray(hi, dtype=float) + np.zeros(start.size)
    f0 = np.asarray(g(start, who), dtype=float)
    root = np.where(f0 == 0.0, start, np.nan)
    # the state of each member still searching: x1 is its newest point, x2
    # the far end of its bracket, x3 the point it dropped last, and frac the
    # next point's place between x1 and x2; each is nan until it exists
    nan = np.full(start.size, np.nan)
    x1, f1, x2, f2, x3, f3, frac = start, f0, nan, nan, nan, nan, nan
    toward = np.where(f0 < 0.0, 1.0, -1.0)  # g rises: the root lies above when g(u0) < 0
    reach = np.asarray(step, dtype=float) + np.zeros(start.size)
    keep = np.isfinite(f0) & (f0 != 0.0)
    while True:
        if not keep.all():
            who, start, lo, hi, toward, reach, x1, f1, x2, f2, x3, f3, frac = (
                a[keep] for a in (who, start, lo, hi, toward, reach,
                                  x1, f1, x2, f2, x3, f3, frac))
        if not who.size:
            break
        widening = np.isnan(frac)
        trial = np.where(widening, np.minimum(np.maximum(start + toward * reach, lo), hi),
                         x1 + frac * (x2 - x1))
        value = np.asarray(g(trial, who), dtype=float)
        ok = np.isfinite(value)
        # a trial of the other sign than the newest point closes the bracket
        # with it, or keeps it; one of the same sign replaces it
        flip = ok & (np.sign(value) != np.sign(f1))
        dropped = ok & ~widening
        x3 = np.where(dropped, np.where(flip, x2, x1), x3)
        f3 = np.where(dropped, np.where(flip, f2, f1), f3)
        x2, f2 = np.where(flip, x1, x2), np.where(flip, f1, f2)
        x1, f1 = np.where(ok, trial, x1), np.where(ok, value, f1)
        reach = 2.0 * reach
        at_bound = widening & ok & ~flip & ((trial == lo) | (trial == hi))

        # members without a bracket read nan from here on and stay widening
        near = np.abs(f1) < np.abs(f2)
        xm = np.where(near, x1, x2)
        tol = (xtol + _ROOT_RTOL * np.abs(xm)) / (2.0 * np.abs(x2 - x1))
        secant = f1 / (f1 - f2)  # the secant root's place between x1 and x2
        exact = np.where(near, f1, f2) == 0.0
        done = ok & (exact | (tol > 0.5))
        root[who[done]] = np.where(exact, xm, x1 + secant * (x2 - x1))[done]

        xi = (x1 - x2) / (x3 - x2)
        phi = (f1 - f2) / (f3 - f2)
        step_frac = np.where(np.isnan(x3), secant, 0.5)
        q = ((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)).nonzero()[0]
        a1, a2, a3, b1, b2, b3 = x1[q], x2[q], x3[q], f1[q], f2[q], f3[q]
        step_frac[q] = (b1 / (b2 - b1) * b3 / (b2 - b3)
                        + (a3 - a1) / (a2 - a1) * b1 / (b3 - b1) * b2 / (b3 - b2))
        frac = np.minimum(np.maximum(step_frac, tol), 1.0 - tol)
        keep = ok & ~done & ~at_bound
    return root


def _log_linear_decay_time(t: np.ndarray, y: np.ndarray, y_range: np.ndarray) -> np.ndarray:
    """Each trace's decay-time estimate from a least-squares line through
    log |y - y_end| where it stands clear of the end value; a third of the
    time span where fewer than two samples do or the line does not fall."""
    resid = np.abs(y - y[:, -1:])
    ends = np.abs(y[:, 0] - y[:, -1])
    mask = resid > np.maximum(1e-3 * np.where(ends != 0.0, ends, y_range), 1e-300)[:, None]
    span = t[:, -1] - t[:, 0]
    tau0 = np.where(span > 0.0, span / 3.0, 1.0)
    lined = np.flatnonzero(mask.sum(axis=1) >= 2)
    if lined.size:
        m = mask[lined]
        tl = np.where(m, t[lined], 0.0)
        ll = np.where(m, np.log(np.where(m, resid[lined], 1.0)), 0.0)
        dt = np.where(m, tl - (tl.sum(axis=1) / m.sum(axis=1))[:, None], 0.0)
        slope = np.vecdot(dt, ll) / np.vecdot(dt, dt)
        falling = slope < 0.0
        tau0[lined[falling]] = -1.0 / slope[falling]
    return tau0


def fit_exponential(times, signal, errors=None) -> DecayFit:
    """Least-squares fit of A exp(-t/T1) + C by variable projection, for each
    trace of a stack (times and signal (..., T), broadcast together).

    For a trial decay rate k = 1/T1 the model is linear in (A, C), so both
    follow from the centred normal equations; only k is searched. At that
    inner optimum the gradient of the squared residual in u = ln k is the
    explicit derivative -A k r.(t e) alone (Kaufman, BIT 15, 49 (1975)), and
    the fit is its rising root, bracketed around a log-linear estimate of T1
    and solved to rounding level, so T1 varies smoothly with the signal. The
    traces are solved in lockstep by ``rising_root``.

    A trace fails with FitError when it cannot determine a decay: a constant
    signal, no optimum within FIT_BRACKET_SPAN of the estimate, or an
    amplitude above FIT_AMPLITUDE_LIMIT times the signal's range (a decay the
    time grid does not resolve). Fewer than 4 samples fail the whole call.
    """
    t, y = np.broadcast_arrays(np.asarray(times, dtype=float), np.asarray(signal, dtype=float))
    n_t = y.shape[-1] if y.ndim else y.size
    if n_t < 4:
        raise FitError(f"need at least 4 samples to fit, got {n_t}")
    shape = y.shape[:-1]
    slots = _slots(errors, shape)
    t, y = t.reshape(-1, n_t), y.reshape(-1, n_t)
    out = np.full((4, y.shape[0]), np.nan)  # t1, amplitude, offset, residual_rms
    y_range = y.max(axis=1) - y.min(axis=1)
    for k in np.flatnonzero(y_range == 0.0):
        slots[k] = FitError("signal is constant; decay time undefined")
    live = _live(slots)
    t, y, y_range = t[live], y[live], y_range[live]
    tau0 = _log_linear_decay_time(t, y, y_range)
    y_mean = y.sum(axis=1) / n_t
    dy = y - y_mean[:, None]

    def project(u, members):
        """(A, C, e, t) minimizing the residual at decay rates k = exp(u), and
        whether e resolves a decay at all."""
        tm = t[members]
        e = np.exp(-np.exp(u)[:, None] * tm)
        e_mean = e.sum(axis=1) / n_t
        de = e - e_mean[:, None]
        norm = np.vecdot(de, de)
        resolved = norm > 0.0
        a = np.divide(np.vecdot(de, dy[members]), norm, out=np.full(u.size, np.nan),
                      where=resolved)
        return a, y_mean[members] - a * e_mean, e, tm, resolved

    def gradient(u, members):
        a, c, e, tm, resolved = project(u, members)
        g = -a * np.exp(u) * np.vecdot(a[:, None] * e + c[:, None] - y[members], tm * e)
        for j in (~np.isfinite(g)).nonzero()[0]:
            slots[live[members[j]]] = FitError(
                f"decay time {math.exp(-u[j]):.3e} s is unresolved on the time grid"
                if not resolved[j] else
                f"decay-fit gradient is not finite at T1 = {math.exp(-u[j]):.3e} s")
        return g

    u0 = -np.log(tau0)
    u = rising_root(gradient, u0, FIT_BRACKET_STEP, u0 - FIT_BRACKET_SPAN,
                    u0 + FIT_BRACKET_SPAN, FIT_XTOL)
    tau = np.exp(-u)
    for j in np.flatnonzero(np.isnan(u)):
        if slots[live[j]] is None:
            slots[live[j]] = FitError(
                f"no least-squares decay time within a factor e^{FIT_BRACKET_SPAN:g} "
                f"of the estimate {tau0[j]:.3e} s")
    for j in np.flatnonzero(~np.isnan(u) & ~(np.isfinite(tau) & (tau > 0.0))):
        slots[live[j]] = FitError(f"exponential fit returned unphysical decay time "
                                  f"{float(tau[j])!r}")
    solved = np.flatnonzero(np.equal(slots[live], None))
    a, c, e, _, _ = project(u[solved], solved)
    for j in np.flatnonzero(np.abs(a) > FIT_AMPLITUDE_LIMIT * y_range[solved]):
        slots[live[solved[j]]] = FitError(
            f"fitted amplitude {a[j]:.3e} exceeds {FIT_AMPLITUDE_LIMIT:g} times the "
            f"signal range {y_range[solved[j]]:.3e}; the time grid does not resolve the decay")
    rms = np.sqrt(np.mean((a[:, None] * e + c[:, None] - y[solved]) ** 2, axis=1))
    out[:, live[solved]] = tau[solved], a, c, rms
    out[:, np.flatnonzero(np.not_equal(slots, None))] = np.nan
    if errors is None:
        _raise_first(slots)
    if shape == ():
        return DecayFit(*(float(v[0]) for v in out))
    return DecayFit(*(v.reshape(shape) for v in out))


def default_time_grid(rm: RateMatrix, p0: np.ndarray, n_points: int = 51,
                      errors=None) -> np.ndarray:
    """Log-spaced grids spanning [T/50, 8T], an (..., n_points) array: 1/T
    is the decay rate -Re(lambda) of each member's dominant mode, the decay
    mode whose coefficient c (p0[1:] - x* = V c) has the greatest |c|^2.

    Modes whose |c|^2 lies within 1e-12 relative of the greatest tie (a
    degenerate pair, or the two modes of a complex pair), and the slowest of
    them sets the grid, which brackets the trace all the same. Where p0
    overlaps no decay mode at all, the first one in eigenvalue order does.
    """
    shape = rm.eigenvalues.shape[:-1]
    slots = _slots(errors, shape)
    overlaps = (np.abs(rm.mode_coefficients(p0)) ** 2).reshape(-1, rm.eigenvalues.shape[-1])
    top = overlaps.max(axis=1, keepdims=True)
    first = np.arange(overlaps.shape[1]) == overlaps.argmax(axis=1)[:, None]
    tied = ((top - overlaps <= 1e-12 * top) & (top > 0.0)) | first
    rate = np.where(tied, -np.real(rm.eigenvalues).reshape(overlaps.shape), np.inf).min(axis=1)
    for k in _live(slots):
        if rate[k] <= 0.0:
            slots[k] = NumericalError("dominant mode does not decay; cannot scale a time grid")
    times = np.full((rate.size, n_points), np.nan)
    live = _live(slots)
    t_guess = 1.0 / rate[live]
    times[live] = np.logspace(np.log10(t_guess / 50.0), np.log10(8.0 * t_guess), n_points,
                              axis=-1)
    if errors is None:
        _raise_first(slots)
    return times.reshape(shape + (n_points,))


def _readout_signal(populations: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The readout signal |p . weights| of each trace: populations (..., T, N)
    and one weight row (..., N) per trace."""
    return np.abs(np.vecdot(populations, weights[..., None, :]))


def _arithmetic_groups(rm: RateMatrix, rates: np.ndarray, members: np.ndarray) -> list:
    """(members, generators) of the members of a flat stack that evolve alike.
    That is all of them, unless the stack is complex and some members are
    real: those are decomposed again on their own, so that each member
    evolves in the arithmetic its own eigensystem has."""
    if not np.iscomplexobj(rm.eigenvalues):
        return [(members, rm[members])]
    real = ~np.any(rm.eigenvalues.imag[members] != 0.0, axis=-1)
    groups = []
    if real.any():
        groups.append((members[real], build_rate_matrix(rates[members[real]])))
    if not real.all():
        groups.append((members[~real], rm[members[~real]]))
    return groups


def decays(rates: np.ndarray, p0: np.ndarray, n_points: int = 51, errors=None):
    """(times, populations, reached) of each member of an (R, N, N) stack of
    summed rate tables relaxing from its p0 (R, N) on the n_points grid its
    dominant mode sets.

    ``reached`` is False, and the member's times and populations nan, where no
    path of nonzero rates leads from level 1 to level 0 (every rate zero, or
    a parity split): level 1 then never decays.
    """
    rates = np.asarray(rates, dtype=float)
    slots = _slots(errors, rates.shape[:1])
    reached = _reaches_ground(rates)[:, 1]
    built = np.full(slots.shape, None, dtype=object)
    rm = build_rate_matrix(rates, built)
    slots[reached] = np.where(np.equal(built, None), slots, built)[reached]
    times = np.full((rates.shape[0], n_points), np.nan)
    populations = np.full((rates.shape[0], n_points, rates.shape[-1]), np.nan)
    live = _live(slots)
    for members, group in _arithmetic_groups(rm, rates, live[reached[live]]):
        failed = np.full(members.size, None, dtype=object)
        grid = default_time_grid(group, p0[members], n_points, failed)
        ok = _live(failed)
        evolved = np.full(ok.size, None, dtype=object)
        populations[members[ok]] = evolve(group[ok], p0[members[ok]], grid[ok], evolved)
        failed[ok] = evolved
        slots[members] = failed
        times[members[ok]] = grid[ok]
    lost = np.not_equal(slots, None)
    times[lost] = populations[lost] = np.nan
    populations.setflags(write=False)
    if errors is None:
        _raise_first(slots)
    return times, populations, reached


def multilevel_t1(rates: np.ndarray, p0: np.ndarray, weights: np.ndarray | None, modes,
                  errors=None) -> np.ndarray:
    """Model T1 (s) of each member of an (R, N, N) stack of summed rate
    tables in each multilevel mode: an (R, len(modes)) array.

    Each member relaxes once from its p0 (R, N) for every mode; population
    mode fits its level-1 population, signal mode its readout signal
    |p . weights| (weights (R, N), read only for signal mode), and all of the
    stack's traces are fitted in one call. A fit whose residual exceeds
    FIT_RESIDUAL_GATE of its amplitude warns; a member with no path of
    nonzero rates from level 1 to level 0 reads inf. ``errors``, an
    (R, len(modes)) object array, also skips every trace whose slot already
    holds an error, so a caller can leave out what it cannot evaluate.
    """
    modes = [T1Mode(m) for m in modes]
    rates = np.asarray(rates, dtype=float)
    slots = _slots(errors, (rates.shape[0], len(modes))).reshape(-1, len(modes))
    t1 = np.full(slots.shape, np.nan)
    wanted = np.flatnonzero(np.equal(slots, None).any(axis=1))
    failed = np.full(wanted.size, None, dtype=object)
    times, populations, reached = decays(rates[wanted], p0[wanted], errors=failed)
    for k, err in zip(wanted, failed):
        if err is not None:
            slots[k][np.equal(slots[k], None)] = err
    t1[wanted[~reached]] = math.inf

    member, column = np.nonzero(np.equal(slots[wanted], None) & reached[:, None])
    traces = np.stack([
        populations[:, :, 1] if mode is T1Mode.MULTILEVEL_POPULATION else
        _readout_signal(populations, weights[wanted]) for mode in modes],
        axis=1)[member, column]
    del populations  # the fit reads only the traces; free the (R, T, N) array first
    fitted = np.full(member.size, None, dtype=object)
    fit = fit_exponential(times[member], traces, fitted)
    gated = (np.abs(fit.amplitude) > 0.0) & (
        fit.residual_rms > FIT_RESIDUAL_GATE * np.abs(fit.amplitude))
    for _ in range(np.count_nonzero(gated)):
        # static message so repeated sweeps warn once per call site
        warnings.warn(
            "decay fit residual exceeds the model-signal gate "
            f"({FIT_RESIDUAL_GATE:g} of amplitude)",
            ModelTraceWarning, stacklevel=2,
        )
    t1[wanted[member], column] = fit.t1
    slots[wanted[member], column] = fitted
    t1[np.not_equal(slots, None)] = np.nan
    if errors is None:
        _raise_first(slots.reshape(-1))
    return t1


def summed_rates(tables, mechanisms, scale=1.0) -> np.ndarray:
    """The channels' rate tables summed in the order of ``mechanisms``, the
    capacitive one times ``scale``: one (N, N) table per channel with a float
    scale, or (R, N, N) stacks with an (R, 1, 1) scale, alike bit for bit."""
    total = np.zeros(np.shape(tables[0]))
    for m, rates in zip(mechanisms, tables):
        total = total + (rates * scale if m == Mechanism.CAPACITIVE else rates)
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
    exponent-free ``ChannelPairs``, the non-capacitive 0<->1 pair rates and
    N x N tables, the computationally inverted thermal state ``p0`` and the
    readout ``weights`` (each state's rotated S21 at the ground-state dressed
    probe, real part). The exponent enters only the capacitive channel, as
    the factor 1/Q'(f_ij) on its split pairs, which the model evaluates from
    the shared pairs, so a model at another exponent builds no pairs.
    ``channel_rates`` builds each channel's N x N table once per bias, the
    capacitive one once per qc_eff and exponent; ``rates`` (the multilevel
    model's input) sums the tables and ``pair_rate`` (the two-level one)
    their 0<->1 entries. At a fixed exponent the capacitive rates scale
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

    def pairs(self, mechanism: Mechanism) -> ChannelPairs:
        """One channel's exponent-free level pairs, as first built for the bias."""
        return self._memoized(mechanism, lambda: build_mechanism_table(
            self.spec, self.res, self.env, mechanism))

    def channel_rates(self, mechanism: Mechanism) -> np.ndarray:
        """One channel's rate table at env.qc_eff and env.epsilon."""
        key = ((mechanism, self.env.qc_eff, self.env.epsilon)
               if mechanism == Mechanism.CAPACITIVE else (mechanism, "table"))
        return self._memoized(key, lambda: self.pairs(mechanism).table(self.env))

    @property
    def p0(self) -> np.ndarray:
        return self._memoized("p0", lambda: invert_computational(
            thermal_population(self.spec, self.env.t_qubit)))

    @property
    def weights(self) -> np.ndarray:
        return self._memoized("weights", lambda: dressed_response(self.spec, self.res))

    def pair_rate(self, mechanisms=ANALYSIS_MECHANISMS, qc_eff: float | None = None) -> float:
        """Sum over mechanisms, in their order, of the symmetrized 0<->1 rate
        rates[0, 1] + rates[1, 0] of each channel's table, the capacitive one
        times env.qc_eff / qc_eff: at env.qc_eff bit for bit the reference
        route in tests/reference.py, which builds its own tables."""
        scale = 1.0 if qc_eff is None else self.env.qc_eff / qc_eff
        total = 0.0
        for m in mechanisms:
            rates = self.channel_rates(m)
            pair = float(rates[0, 1] + rates[1, 0])
            total += pair * scale if m == Mechanism.CAPACITIVE else pair
        return total

    def rates(self, mechanisms=ANALYSIS_MECHANISMS, qc_eff: float | None = None) -> np.ndarray:
        """The selected channels' directional rates summed, at qc_eff if given."""
        if not mechanisms:
            raise ValueError("need at least one mechanism")
        scale = 1.0 if qc_eff is None else self.env.qc_eff / qc_eff
        return summed_rates([self.channel_rates(m) for m in mechanisms], mechanisms, scale)

    def decay(self, n_points: int = 51) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(times, populations, signal) of p0 relaxing under the analysis
        channels, on the n_points grid the dominant mode sets: ``decays`` as
        a stack of one, with the readout signal |p . weights| that signal
        mode fits. None when no path of nonzero rates leads from level 1 to
        level 0 (every rate zero, or a parity split)."""
        times, populations, reached = decays(self.rates()[None], self.p0[None], n_points)
        if not reached[0]:
            return None
        return times[0], populations[0], _readout_signal(populations, self.weights[None])[0]

    def t1(self, mode: T1Mode = T1Mode.MULTILEVEL_SIGNAL, mechanisms=ANALYSIS_MECHANISMS,
           qc_eff: float | None = None) -> float:
        """Model T1 (s) from the selected channels, at qc_eff if given:
        ``model_t1`` as a stack of one."""
        return float(model_t1([(self, mechanisms)], (mode,), qc_eff)[0, 0])


def model_t1(members, modes, qc_eff: float | None = None, errors=None) -> np.ndarray:
    """Model T1 (s) of each (BiasModel, mechanisms) member in each mode, at
    qc_eff if given: an (R, len(modes)) array.

    Each member is read once. Where a mode is two_level it reads the 0<->1
    ``pair_rate``, whose inverse is that T1 (inf where it vanishes); for the
    multilevel modes it reads the summed ``rates``, ``p0`` and, in signal
    mode, the readout ``weights``, which one ``multilevel_t1`` stack evaluates
    for every mode: an exponential fitted to the p1 decay or to the readout
    signal |p . weights|, inf where no path of nonzero rates leads from level
    1 to level 0. A failed pair, rates or p0 read fails every mode of its
    member, a failed weights read only signal mode.
    """
    modes = [T1Mode(m) for m in modes]
    slots = _slots(errors, (len(members), len(modes))).reshape(-1, len(modes))
    stacked = [mode for mode in dict.fromkeys(modes) if mode is not T1Mode.TWO_LEVEL]
    n = members[0][0].spec.n_levels
    pair = np.full(len(members), np.nan)
    rates, p0, weights = (np.zeros((len(members), n, n)), np.zeros((len(members), n)),
                          np.zeros((len(members), n)))
    failed = np.full((len(members), len(stacked)), None, dtype=object)
    for k, (model, mechanisms) in enumerate(members):
        try:
            if T1Mode.TWO_LEVEL in modes:
                pair[k] = model.pair_rate(mechanisms, qc_eff)
            if stacked:
                rates[k], p0[k] = model.rates(mechanisms, qc_eff), model.p0
        except FluxT1Error as exc:
            slots[k] = failed[k] = exc
            continue
        if T1Mode.MULTILEVEL_SIGNAL in stacked:
            try:
                weights[k] = model.weights
            except FluxT1Error as exc:
                failed[k, stacked.index(T1Mode.MULTILEVEL_SIGNAL)] = exc
    with np.errstate(divide="ignore"):
        columns = {T1Mode.TWO_LEVEL: 1.0 / pair}
    if stacked:
        t1 = multilevel_t1(rates, p0, weights, stacked, failed)
        columns.update((mode, t1[:, j]) for j, mode in enumerate(stacked))
        for j, mode in enumerate(modes):
            if mode is not T1Mode.TWO_LEVEL:
                slots[:, j] = failed[:, stacked.index(mode)]
    if errors is None:
        _raise_first(slots.reshape(-1))
    return np.stack([columns[mode] for mode in modes], axis=-1)


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
    spectrum, which the two-level mode reads through its 0<->1 rates. No
    package code calls it; it stays because the benchmark's tracer
    (``perfbench/spans.py``) wraps it by name."""
    return BiasModel(diagonalize(params, bias, n_levels=n_levels), res, env).t1(mode, mechanisms)

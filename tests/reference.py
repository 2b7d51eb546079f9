"""Reference routes the tests compare the package against, and the
diagnostics only tests read.

Each two-level route builds its own tables through ``build_mechanism_table``
and reads their entries, apart from any ``BiasModel`` and its shared rate
data, so a test that finds the package's answer equal to one of these checks
the package's memoized tables as well as its arithmetic.
"""

import math

import numpy as np

from fluxt1.dynamics import RateMatrix
from fluxt1.errors import FitError
from fluxt1.hamiltonian import Spectrum
from fluxt1.loss import (
    ANALYSIS_MECHANISMS,
    BACKGROUND_MECHANISMS,
    Environment,
    Mechanism,
    build_mechanism_table,
)
from fluxt1.resonator import ResonatorParams


def two_level_total_rate(
    spec: Spectrum,
    res: ResonatorParams | None,
    env: Environment,
    mechanisms=ANALYSIS_MECHANISMS,
) -> float:
    """Sum over mechanisms of the symmetrized 0<->1 rate, from the entries of
    freshly built tables: ``BiasModel.pair_rate`` repeats this arithmetic on
    the tables its spectrum memoizes and must match it bit for bit."""
    total = 0.0
    for m in mechanisms:
        rates = build_mechanism_table(spec, res, env, m).table(env)
        total += rates[0, 1] + rates[1, 0]
    return total


def two_level_qceff_closed_form(
    t1_measured: float,
    spec: Spectrum,
    res: ResonatorParams,
    env: Environment,
) -> float:
    """Algebraic two-level inversion: solve 1/t1 = Gamma_bg + K/qc_eff.

    The capacitive pair rate at fixed epsilon is exactly proportional to
    1/qc_eff, so the inversion is one division. Reads both rates through
    ``two_level_total_rate``, as the reference for
    ``pipeline.two_level_qceff``, whose arithmetic it repeats in the same
    order.
    """
    bg = two_level_total_rate(spec, res, env, BACKGROUND_MECHANISMS)
    cap_ref = two_level_total_rate(spec, res, env, (Mechanism.CAPACITIVE,))
    residual = 1.0 / t1_measured - bg
    if not residual > 0.0:
        raise FitError(
            "measured rate is below the background (non-capacitive) prediction; "
            "no positive qc_eff reproduces it"
        )
    return float(env.qc_eff * cap_ref / residual)


def stationary_distribution(rm: RateMatrix) -> np.ndarray:
    """The zero mode of the full generator b, found apart from the package's
    deflation: the eigenvector of ``np.linalg.eig(rm.b)`` whose eigenvalue
    has the least |lambda|, normalized to unit 1-norm (a probability vector)."""
    w, v = np.linalg.eig(rm.b)
    s = np.abs(w).argmin(axis=-1)[..., None, None]
    v0 = np.real(np.take_along_axis(v, s, axis=-1))[..., 0]
    return v0 / v0.sum(axis=-1, keepdims=True)


def exponentialness(rm: RateMatrix, p0) -> tuple[float, int | None]:
    """(m, dominant_index) of one generator, from its own ``np.linalg.eig(rm.b)``
    and apart from the package's deflation: m is the Euclidean norm of the
    residual of p0 outside the zero mode (the least |lambda|) and the dominant
    decay mode, the other one whose coefficient c (p0 = V c) has the greatest
    |c|^2; dominant_index is that mode's index in this eig's order. Zero
    means the decay is exactly single exponential (always the case for two
    levels).

    Where a second decay mode's |c|^2 lies within 1e-12 relative of the
    greatest, the dynamics are degenerate and no mode dominates: (nan, None).
    """
    p0 = np.asarray(p0, dtype=float)
    w, v = np.linalg.eig(rm.b)
    c = np.linalg.inv(v) @ p0.astype(v.dtype)
    s_idx = int(np.abs(w).argmin())
    overlaps = np.abs(c) ** 2
    overlaps[s_idx] = -1.0  # never a candidate
    k_max = int(np.argmax(overlaps))
    top, second = np.sort(overlaps)[::-1][:2]
    if top > 0.0 and top - second <= 1e-12 * top:
        return math.nan, None
    delta = p0 - c[s_idx] * v[:, s_idx] - c[k_max] * v[:, k_max]
    # p0 is real; only a complex dominant mode leaves an imaginary part
    return float(np.linalg.norm(delta.real)), k_max

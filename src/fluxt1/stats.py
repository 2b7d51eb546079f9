"""Welch's two-sided t-test with p-values and mean-difference intervals.

The p-value is computed twice, through the regularized incomplete beta
identity and through adaptive quadrature of the t density; the two routes
must agree to 1e-9 or the test refuses to answer. The t density uses an
explicit Lanczos log-gamma so the special-function path is reproducible from
the coefficients in this file alone.

The scipy modules only this module needs (``scipy.integrate``,
``scipy.optimize``, ``scipy.special``) load on first use, in the public entry
points ``two_sided_p_value`` and ``critical_t``. Importing them takes about as
long as the whole rest of ``import fluxt1.cli``, and only ``compare`` runs a
Welch test, so every other command starts without them. The beta route takes
the loaded ``betainc`` as an argument, so no import statement runs inside the
root finder's loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateSampleError, NumericalError

# Lanczos approximation, g = 7, n = 9 (Godfrey's coefficient set); relative
# error below 1e-13 on the positive real axis.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_ROUTE_AGREEMENT = 1e-9

DEFAULT_ALPHA = 0.05  # significance level: 95% intervals


def lgamma(x: float) -> float:
    """log Gamma(x) for x > 0 via the Lanczos series (reflection below 1/2)."""
    if x <= 0.0:
        raise ValueError(f"lgamma requires x > 0, got {x!r}")
    if x < 0.5:
        # Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.log(math.pi / math.sin(math.pi * x)) - lgamma(1.0 - x)
    x -= 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (x + i)
    t = x + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (x + 0.5) * math.log(t) - t + math.log(acc)


def _t_log_norm(nu: float) -> float:
    """log of the t density's normalization, Gamma((nu+1)/2) / (Gamma(nu/2) sqrt(pi nu))."""
    if not nu > 0.0:
        raise ValueError(f"nu must be > 0, got {nu!r}")
    return lgamma((nu + 1.0) / 2.0) - lgamma(nu / 2.0) - 0.5 * math.log(math.pi * nu)


def _t_density(t: float, nu: float, log_norm: float) -> float:
    """The t density at a precomputed ``_t_log_norm(nu)``. It is the
    quadrature integrand, so no integrand point evaluates a log-gamma."""
    return math.exp(log_norm - 0.5 * (nu + 1.0) * math.log1p(t * t / nu))


def _two_sided_p_beta(betainc, t0: float, nu: float) -> float:
    """p = I_x(nu/2, 1/2) with x = nu / (nu + t0^2)."""
    if t0 == 0.0:
        return 1.0
    return float(betainc(nu / 2.0, 0.5, nu / (nu + t0 * t0)))


def two_sided_p_value(t0: float, nu: float) -> float:
    """Two-sided tail probability of |T| >= |t0|, dual-route checked."""
    from scipy.integrate import quad
    from scipy.special import betainc

    p_beta = _two_sided_p_beta(betainc, t0, nu)
    tail, _ = quad(_t_density, abs(t0), math.inf, args=(nu, _t_log_norm(nu)),
                   epsabs=1e-13, epsrel=1e-12)
    p_quad = 2.0 * tail
    if abs(p_beta - p_quad) > _ROUTE_AGREEMENT:
        raise NumericalError(
            f"p-value routes disagree: beta={p_beta!r} vs quadrature={p_quad!r}"
        )
    return p_beta


def critical_t(alpha: float, nu: float) -> float:
    """t* >= 0 with two-sided tail mass alpha, by bracketed root finding."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
    if not nu > 0.0:
        raise ValueError(f"nu must be > 0, got {nu!r}")
    if alpha == 1.0:
        return 0.0
    from scipy.optimize import brentq
    from scipy.special import betainc

    f = lambda t: _two_sided_p_beta(betainc, t, nu) - alpha  # noqa: E731
    hi = 1.0
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise NumericalError(f"failed to bracket critical t for alpha={alpha}, nu={nu}")
    return float(brentq(f, 0.0, hi, xtol=1e-12, rtol=8.9e-16))


@dataclass(frozen=True)
class WelchResult:
    """Unequal-variance comparison of two sample means."""

    t0: float
    nu: float
    p_value: float
    ci_low: float
    ci_high: float
    alpha: float
    mean1: float
    mean2: float
    n1: int
    n2: int

    def swapped(self) -> WelchResult:
        """The same test with the samples in the other order, as
        ``welch_t_test(sample2, sample1)`` computes it bit for bit."""
        return replace(self, t0=-self.t0, ci_low=-self.ci_high, ci_high=-self.ci_low,
                       mean1=self.mean2, mean2=self.mean1, n1=self.n2, n2=self.n1)


def welch_t_test(sample1, sample2, alpha: float = DEFAULT_ALPHA) -> WelchResult:
    """Welch's two-sided t-test with a (1 - alpha) mean-difference interval.

    Uses sample (n-1) variances; raises :class:`DegenerateSampleError` when
    both samples are constant, since the statistic is then undefined.
    """
    x1 = np.asarray(sample1, dtype=float)
    x2 = np.asarray(sample2, dtype=float)
    if x1.size < 2 or x2.size < 2:
        raise ValueError(f"need at least 2 samples each, got {x1.size} and {x2.size}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    m1, m2 = float(np.mean(x1)), float(np.mean(x2))
    v1, v2 = float(np.var(x1, ddof=1)), float(np.var(x2, ddof=1))
    n1, n2 = int(x1.size), int(x2.size)
    se2 = v1 / n1 + v2 / n2
    if se2 == 0.0:
        raise DegenerateSampleError("both samples have zero variance; t undefined")
    t0 = (m1 - m2) / math.sqrt(se2)
    nu = se2**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    p = two_sided_p_value(t0, nu)
    half = critical_t(alpha, nu) * math.sqrt(se2)
    diff = m1 - m2
    return WelchResult(
        t0=t0, nu=nu, p_value=p,
        ci_low=diff - half, ci_high=diff + half, alpha=alpha,
        mean1=m1, mean2=m2, n1=n1, n2=n2,
    )


def ci_of_mean_difference(result: WelchResult, as_percent_of: float) -> tuple[float, float]:
    """Interval bounds as a signed percentage of a reference mean.

    Positive values mean sample 1's mean exceeds sample 2's. The reference is
    conventionally the second (column) sample's mean.
    """
    if as_percent_of == 0.0:
        raise ValueError("reference mean must be nonzero")
    return (
        100.0 * result.ci_low / as_percent_of,
        100.0 * result.ci_high / as_percent_of,
    )

"""Exception and warning types shared across the package, and the number rule.

The number rule is the one check of every model input: each field of a model
type must hold a finite number of its stated sign, or None where its default
is None, else building the object raises ValueError (``check_fields``).
"""

import math
from dataclasses import fields


def check_fields(obj, **signs: str) -> None:
    """The number rule on every field of the dataclass ``obj``; ``signs``
    gives a field's sign, "> 0" or ">= 0" (any sign when unnamed)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is not None or f.default is not None:
            check_number(f.name, value, signs.get(f.name, ""))


def check_number(name: str, value, sign: str = "") -> None:
    """The number rule for one value: finite, and of ``sign`` if one is given."""
    if not math.isfinite(value) or (sign == "> 0" and value <= 0.0) or \
            (sign == ">= 0" and value < 0.0):
        raise ValueError(f"{name} must be finite{' and ' + sign if sign else ''}, got {value!r}")


class FluxT1Error(Exception):
    """Base class for all package-specific errors."""


class ConvergenceError(FluxT1Error):
    """Basis growth exhausted before the spectrum convergence target was met.

    Carries the last observed relative energy change in ``last_delta``.
    """

    def __init__(self, message, last_delta=None):
        super().__init__(message)
        self.last_delta = last_delta


class ResonanceCollisionError(FluxT1Error):
    """A qubit transition sits inside the guard band around the resonator.

    ``transition`` is the offending (i, j) level pair.
    """

    def __init__(self, message, transition=None):
        super().__init__(message)
        self.transition = transition


class ZeroTransitionError(FluxT1Error):
    """A rate table met a degenerate level pair (zero transition frequency)
    with a nonzero matrix element in a switched-on channel."""


class FitError(FluxT1Error):
    """Curve fit or quality-factor inversion failed to converge, found no
    solution, or produced an unphysical result."""


class DegenerateSampleError(FluxT1Error):
    """Statistic undefined: both samples have zero variance."""


class NumericalError(FluxT1Error):
    """Two redundant numerical routes disagreed beyond tolerance, or an
    eigendecomposition failed."""


class DataError(FluxT1Error):
    """Malformed or inconsistent input file content."""


class ModelTraceWarning(UserWarning):
    """One model trace is suspect but kept: its generator has a complex
    eigenpair, its populations were renormalized, or its decay fit exceeds
    the residual gate. A caller that evaluates many trial models may
    silence this type, and this type alone."""


class QuasiparticleEnergyWarning(UserWarning):
    """Transition energy is no longer small compared to the superconducting
    gap; the quasiparticle spectral-density approximation degrades."""

"""Exception and warning types shared across the package."""


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
    """A rate formula with a 1/omega (or 1/sqrt(omega)) factor was asked to
    evaluate a degenerate level pair."""


class DominantModeTieError(FluxT1Error):
    """Two decay modes overlap the initial state equally well; carries the
    tied mode indices in ``tied_indices``."""

    def __init__(self, message, tied_indices=()):
        super().__init__(message)
        self.tied_indices = tuple(tied_indices)


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


class QuasiparticleEnergyWarning(UserWarning):
    """Transition energy is no longer small compared to the superconducting
    gap; the quasiparticle spectral-density approximation degrades."""

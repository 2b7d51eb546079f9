"""Reference routes the tests compare the package against.

Each builds its own tables through ``build_mechanism_table`` and reads their
entries, apart from any ``BiasModel`` and its shared pair data, so a test
that finds the package's answer equal to one of these checks the package's
pair reader as well as its arithmetic.
"""

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
    freshly built tables: the reference route that ``BiasModel.pair_rate``
    must match bit for bit."""
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

"""Directional transition rates for every modeled energy-relaxation channel.

Every channel is one golden-rule formula over the level pairs i < j of a
spectrum, evaluated for all pairs at once (Nguyen et al., "High-Coherence
Fluxonium Qubit", PRX 9, 041041 (2019), generalized from 0<->1 to any pair):

    pair total = coupling prefactor * |<i|O|j>|^2 * S(f_ij),  f_ij = E_j - E_i

A channel is its operator O, its prefactor, its spectral function S and the
bath that splits the pair total into a downward (j -> i) and an upward
(i -> j) rate:

- thermal baths use (coth(x) +- 1)/2 at x = hf/2kT, the unique split whose
  stationary state is the Boltzmann distribution. The Purcell channel
  thermalizes with the readout environment (t_res); capacitive and
  control-line loss with the qubit (t_qubit).
- quasiparticle tunneling keeps the pair total as the downward rate and
  suppresses the upward one by exp(-hf/kT) at t_qubit.
- 1/f flux noise is classical symmetric noise (equal up/down rates): its
  temperature dependence lives inside the measured noise amplitude, so
  imposing a quantum asymmetry on top would double count.

The aluminum gap ``GAP`` and the resonator impedance ``RESONATOR_Z0`` are constants.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .constants import E_CHARGE, H, HBAR, K_B, PHI0
from .errors import QuasiparticleEnergyWarning, ZeroTransitionError, check_fields
from .hamiltonian import Spectrum
from .resonator import RESONATOR_Z0, ResonatorParams, coupling_capacitance

# Control and readout lines present a matched microwave environment.
LINE_IMPEDANCE = 50.0  # Ohm

Q_REFERENCE_FREQUENCY = 6e9  # Hz, pivot of the quality-factor power law

GAP = 44e9  # Hz, superconducting gap of thin-film aluminum as a frequency


class Mechanism(str, Enum):
    CAPACITIVE = "capacitive"
    FLUX_NOISE = "flux_noise"
    QP_JUNCTION = "qp_junction"
    QP_ARRAY = "qp_array"
    CHARGE_LINE = "charge_line"
    FLUX_LINE = "flux_line"
    PURCELL = "purcell"


# Channels included when converting measured relaxation into a capacitive
# quality factor (quasiparticle tunneling is treated as negligible).
ANALYSIS_MECHANISMS = (
    Mechanism.CAPACITIVE,
    Mechanism.FLUX_NOISE,
    Mechanism.CHARGE_LINE,
    Mechanism.FLUX_LINE,
    Mechanism.PURCELL,
)

# Channels other than the capacitive one whose predictions gate the
# exclusion filter in the analysis pipeline.
BACKGROUND_MECHANISMS = (
    Mechanism.FLUX_NOISE,
    Mechanism.CHARGE_LINE,
    Mechanism.FLUX_LINE,
    Mechanism.PURCELL,
)


@dataclass(frozen=True)
class Environment:
    """Bath temperatures, noise amplitudes, and coupling constants.

    a_phi is the 1/f flux-noise power at 1 Hz in units of Phi0^2 (the square
    of the usual sqrt(A_phi) quoted in uPhi0/sqrt(Hz)). qc_eff and epsilon
    parameterize the frequency-dependent capacitive quality factor
    Q'(f) = qc_eff * (6 GHz / f)^epsilon. The superconducting gap is the
    constant ``GAP``.
    """

    t_qubit: float = 0.040
    t_res: float = 0.065
    a_phi: float = 0.0
    x_qp: float = 0.0
    c_drive: float = 20e-18
    m_drive: float = PHI0 / 0.0215
    qc_eff: float = 3.0e5
    epsilon: float = 0.25

    def __post_init__(self):
        check_fields(self, t_qubit="> 0", t_res="> 0", a_phi=">= 0", x_qp=">= 0",
                     c_drive=">= 0", m_drive=">= 0", qc_eff="> 0")


def q_of_frequency(env: Environment, f):
    """Capacitive quality factor at transition frequency f (Hz, scalar or array)."""
    # the array method skips np.all's dispatch, a few us of every evaluation
    if not (np.asarray(f) > 0.0).all():
        raise ValueError(f"frequency must be > 0, got {f!r}")
    return _quality_factor(env.qc_eff, env.epsilon, f)


def _quality_factor(qc_eff, epsilon: float, f):
    """Q'(f) = qc_eff * (6 GHz / f)^epsilon at one exponent, unchecked."""
    return qc_eff * (Q_REFERENCE_FREQUENCY / f) ** epsilon


def capacitive_pair_rates(strength, f, down, up, qc_eff, epsilon) -> np.ndarray:
    """Symmetrized rates strength / Q'(f) * (up + down) of capacitive level
    pairs, each given by its exponent-free parts (``ChannelPairs`` fields,
    such as the 0<->1 pair the two-level inversion reads) and its qc_eff, at
    every frequency exponent of ``epsilon``: the pair arguments are 1-D over
    P pairs (qc_eff may be a scalar), epsilon is 1-D over E exponents, and
    the result is P x E, each entry bit for bit the sum of the pair's two
    entries of ``ChannelPairs.table`` at that exponent, without the table.

    Q' is taken one exponent at a time, with a scalar exponent as
    ``q_of_frequency`` takes it: numpy's ``**`` rounds a scalar exponent of
    -1, 0.5 or 2 exactly (as 1/x, sqrt(x), x*x), which an array of exponents
    does not, so each column is bit for bit the rate of one pair at its
    exponent.
    """
    inverse_q = 1.0 / np.array([_quality_factor(qc_eff, e, f) for e in epsilon]).T
    total = strength[:, None] * inverse_q
    return total * up[:, None] + total * down[:, None]


def purcell_resistance(res: ResonatorParams, f):
    """Re Z_in (Ohm) of the feedline filtered by the readout resonator.

    Quarter-wave line of impedance Z0 = RESONATOR_Z0 and angle
    theta = pi f / (2 f_res), inductively coupled to a matched feedline with
    mutual M inferred from the resonator quality factor:
    M = (Z0/w_res) sqrt(pi/(2 Q_res)). Of
    Z_in = Z0 (w^2 M^2 cos + 2j Z0^2 sin) / (2 Z0^2 cos + j w^2 M^2 sin) only
    the real part, 2 Z0^3 w^2 M^2 / (4 Z0^4 cos^2 + w^4 M^4 sin^2), relaxes the
    qubit; it stays finite at the cotangent poles. f may be a scalar or an array.
    """
    if not np.all(f > 0.0):
        raise ValueError(f"frequency must be > 0, got {f!r}")
    coupling = (2.0 * math.pi * f * purcell_mutual_inductance(res)) ** 2  # w^2 M^2
    theta = math.pi * f / (2.0 * res.omega_res)
    z0 = RESONATOR_Z0
    return (2.0 * z0**3 * coupling
            / (4.0 * z0**4 * np.cos(theta) ** 2 + coupling**2 * np.sin(theta) ** 2))


def purcell_mutual_inductance(res: ResonatorParams) -> float:
    """Resonator-feedline mutual (H) implied by the loaded quality factor."""
    omega_res = 2.0 * math.pi * res.omega_res
    return RESONATOR_Z0 / omega_res * math.sqrt(math.pi / (2.0 * res.q_res))


@lru_cache(maxsize=16)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs i < j of an n-level table."""
    i, j = np.triu_indices(n, k=1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


@dataclass(frozen=True)
class ChannelPairs:
    """One channel at one bias over its split level pairs (f_ij > 0), with
    everything but the capacitive quality factor evaluated.

    A pair's total rate is ``strength``, except in the capacitive channel:
    there ``strength`` is coupling * |n_ij|^2, and the total is
    strength * (1 / Q'(f_ij)) at the environment's qc_eff and frequency
    exponent, so one build serves every exponent. The bath splits the total
    into the downward (j -> i) rate total * ``down`` and the upward
    (i -> j) rate total * ``up``. Degenerate pairs are left out: their rates
    are zero, and no factor ever touches them.
    """

    mechanism: Mechanism
    n: int  # levels of the table
    i: np.ndarray  # lower and upper level of each split pair, in table order
    j: np.ndarray
    f: np.ndarray  # f_ij, Hz
    strength: np.ndarray
    down: np.ndarray
    up: np.ndarray

    def table(self, env: Environment) -> np.ndarray:
        """The channel's N x N directional rates in env, rates[i, j] =
        Gamma_{i->j}, write-locked."""
        total = self.strength
        if self.mechanism is Mechanism.CAPACITIVE:
            total = total * (1.0 / q_of_frequency(env, self.f))
        down, up = total * self.down, total * self.up
        rates = np.zeros((self.n, self.n))
        rates[self.j, self.i] = down
        rates[self.i, self.j] = up
        rates.setflags(write=False)
        return rates

    def pair_01(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(strength, f, down, up) of the 0<->1 pair, as one-element arrays;
        a degenerate 0<->1 pair, which carries no rate, reads strength 0."""
        if self.j.size and self.j[0] == 1:
            return self.strength[:1], self.f[:1], self.down[:1], self.up[:1]
        zero = np.zeros(1)
        return zero, np.full(1, Q_REFERENCE_FREQUENCY), zero, zero


def build_mechanism_table(
    spec: Spectrum,
    res: ResonatorParams | None,
    env: Environment,
    mechanism: Mechanism,
) -> ChannelPairs:
    """One mechanism's freshly built ``ChannelPairs`` at the spectrum's bias:
    everything of its rates but the capacitive quality factor.

    ``res`` is only consulted by the Purcell channel and may be None for the
    others. A degenerate pair (f_ij = 0) with a nonzero matrix element and a
    switched-on channel raises ZeroTransitionError naming the pair. The
    quasiparticle channels warn once per build when live pairs lie above
    GAP/10, where their low-energy spectral density is inaccurate.
    """
    mechanism = Mechanism(mechanism)
    if mechanism is Mechanism.PURCELL and res is None:
        raise ValueError("Purcell rates require resonator parameters")
    p = spec.params
    # energies ascend, so level j lies above level i in every pair
    i, j = _upper_pairs(spec.n_levels)
    f = spec.energies[j] - spec.energies[i]
    split = f != 0.0
    fs = f[split]
    omega = 2.0 * math.pi * fs

    # operator, coupling prefactor (zero switches the channel off), spectral
    # function on the split pairs, and bath
    bath, temperature = "thermal", env.t_qubit
    if mechanism is Mechanism.CAPACITIVE:
        # S = 1 / Q'(f) carries qc_eff and the exponent: ChannelPairs.table
        # and capacitive_pair_rates apply it
        op, coupling = spec.n_elem, 16.0 * H * p.ec / HBAR
        spectral = None
    elif mechanism is Mechanism.FLUX_NOISE:
        # 1/f noise S_Phi(w) = 2 pi A_phi Phi0^2 / w; a zero A_phi switches
        # the channel off through the prefactor
        op, bath = spec.phi_elem, "symmetric"
        coupling = 2.0 / HBAR**2 * (2.0 * math.pi * H * p.el / PHI0) ** 2 if env.a_phi else 0.0
        spectral = 2.0 * math.pi * env.a_phi * PHI0**2 / omega
    elif mechanism in (Mechanism.QP_JUNCTION, Mechanism.QP_ARRAY):
        # the array's per-junction phase drop is linearized, so the junction
        # count cancels and the closed form carries 2 E_L and the full phi
        if mechanism is Mechanism.QP_JUNCTION:
            op, coupling = spec.sin_half_elem, 16.0 * H * p.ej * env.x_qp / (math.pi * HBAR)
        else:
            op, coupling = spec.phi_elem, 2.0 * H * p.el * env.x_qp / (math.pi * HBAR)
        spectral, bath = np.sqrt(2.0 * GAP / fs), "boltzmann"
    elif mechanism is Mechanism.CHARGE_LINE:
        # voltage noise S_V = hbar w Z coth(x) through C_d across n
        op = spec.n_elem
        coupling = 2.0 / HBAR**2 * (2.0 * E_CHARGE * env.c_drive / p.c_sigma) ** 2
        spectral = HBAR * omega * LINE_IMPEDANCE
    elif mechanism is Mechanism.FLUX_LINE:
        # current noise S_I = hbar w coth(x) / Z through M_d across phi
        op = spec.phi_elem
        coupling = 2.0 / HBAR**2 * (2.0 * math.pi * H * p.el * env.m_drive / PHI0) ** 2
        spectral = HBAR * omega / LINE_IMPEDANCE
    else:
        # (8 e^2 w / hbar) (C_c/C_Sigma)^2 Re[Z_in(w)] coth(x) at t_res
        op, temperature = spec.n_elem, env.t_res
        c_ratio = coupling_capacitance(res, p.c_sigma) / p.c_sigma
        coupling = 8.0 * E_CHARGE**2 / HBAR * c_ratio**2
        spectral = omega * purcell_resistance(res, fs)

    # |M_ij|^2 from the canonical upper slot: the two float entries can differ
    # at roundoff on parity-forbidden pairs, and one slot keeps up/down exact.
    # float_power squares through C pow, bit for bit like Python's float **,
    # so each entry equals the scalar evaluation of its formula
    elem2 = np.float_power(np.abs(op[i, j]), 2)
    live = (elem2 != 0.0) & (coupling != 0.0)
    degenerate = np.flatnonzero(live & ~split)
    if degenerate.size:
        k = degenerate[0]
        raise ZeroTransitionError(
            f"degenerate pair ({i[k]}, {j[k]}): {mechanism.value} rate undefined"
        )
    if bath == "boltzmann":
        n_hot = np.count_nonzero(live & (f > GAP / 10.0))
        if n_hot:
            warnings.warn(
                f"{mechanism.value}: {n_hot} level pair(s) lie above gap/10 = "
                f"{GAP / 10.0:.3e} Hz; the low-energy quasiparticle spectral "
                "density is inaccurate there",
                QuasiparticleEnergyWarning,
                stacklevel=2,
            )

    strength = coupling * elem2[split]
    if spectral is not None:
        strength = strength * spectral
    if bath == "symmetric":
        down = up = np.ones_like(fs)
    elif bath == "boltzmann":
        down, up = np.ones_like(fs), np.exp(-H * fs / (K_B * temperature))
    else:
        # absorption factor 1/(exp(2x) - 1); beyond x = 350 it is exactly 0
        x = H * fs / (2.0 * K_B * temperature)
        absorption = np.zeros_like(x)
        warm = x <= 350.0
        absorption[warm] = 1.0 / np.expm1(2.0 * x[warm])
        down, up = 1.0 + absorption, absorption

    return ChannelPairs(mechanism=mechanism, n=spec.n_levels, i=i[split], j=j[split], f=fs,
                        strength=strength, down=down, up=up)

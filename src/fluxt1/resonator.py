"""Readout-resonator response: dispersive shifts, S21, and IQ rotation.

The capacitively coupled resonator pulls by chi_i when the circuit occupies
state i; probing at the ground-state dressed frequency and rotating the IQ
plane for maximal 0-1 contrast reproduces the measured readout signal chain.
``dressed_response`` reduces that chain to what the signal model reads: one
real readout weight per state, the real part of its rotated S21.
Everything here works in linear frequencies (Hz); the dispersive-shift sum is
homogeneous, so no angular conversion is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import E_CHARGE, HBAR
from .errors import ResonanceCollisionError, check_fields
from .hamiltonian import Spectrum

GUARD_BAND = 1e3  # Hz
RESONATOR_Z0 = 50.0  # Ohm, characteristic impedance of the readout resonator


@dataclass(frozen=True)
class ResonatorParams:
    """Bare resonator frequency, coupling and linewidth, all in Hz; the line
    impedance is the constant ``RESONATOR_Z0``."""

    omega_res: float
    g: float
    kappa: float

    def __post_init__(self):
        check_fields(self, omega_res="> 0", g=">= 0", kappa="> 0")

    @property
    def q_res(self) -> float:
        """Loaded quality factor omega_res/kappa."""
        return self.omega_res / self.kappa


def dispersive_shift(spec: Spectrum, res: ResonatorParams, state: int) -> float:
    """Resonator pull chi_state (Hz) from second-order charge coupling.

    chi_i = sum_{j != i} 2 g^2 |<i|n|j>|^2 w_ij / (w_ij^2 - w_res^2).
    Raises :class:`ResonanceCollisionError` if any contributing transition
    falls within ``GUARD_BAND`` of the resonator: near-resonant terms are an
    error rather than being skipped, since skipping silently biases chi.
    """
    n = spec.n_levels
    if not 0 <= state < n:
        raise IndexError(f"state {state} out of range for n_levels={n}")
    if res.g == 0.0:
        return 0.0
    chi = 0.0
    for j in range(n):
        if j == state:
            continue
        w_ij = float(spec.energies[j] - spec.energies[state])
        if abs(abs(w_ij) - res.omega_res) < GUARD_BAND:
            raise ResonanceCollisionError(
                f"transition ({state}, {j}) at {w_ij:.6e} Hz lies within "
                f"{GUARD_BAND:.0e} Hz of the resonator at {res.omega_res:.6e} Hz",
                transition=(state, j),
            )
        elem2 = abs(spec.n_elem[state, j]) ** 2
        chi += 2.0 * res.g**2 * elem2 * w_ij / (w_ij**2 - res.omega_res**2)
    return chi


def s21(res: ResonatorParams, chi_i: float, probe: float) -> complex:
    """Transmission past the resonator dressed by chi_i, probed at ``probe``.

    Assumes equal loaded and coupling quality factors Q = omega_res/kappa, so
    the on-resonance transmission dips to zero.
    """
    q_load = res.q_res
    delta = probe - (res.omega_res + chi_i)
    return 1.0 - 1.0 / (1.0 + 2j * q_load * delta / (res.omega_res + chi_i))


def rotate_for_contrast(points) -> tuple[float, np.ndarray]:
    """Global IQ rotation maximizing |Re p0 - Re p1|.

    Closed form: rotating by -arg(p0 - p1) aligns the 0-1 separation with the
    real axis. The optimum is pi-periodic; ties resolve to the smaller
    non-negative angle in [0, pi).
    """
    pts = np.asarray(points, dtype=complex)
    if pts.size < 2:
        raise ValueError(f"need at least 2 points, got {pts.size}")
    angle = float((-np.angle(pts[0] - pts[1])) % math.pi)
    return angle, pts * np.exp(1j * angle)


def dressed_response(spec: Spectrum, res: ResonatorParams) -> np.ndarray:
    """The readout weight of every retained state, write-locked: the real
    part of its S21, probed at the ground-state dressed frequency
    omega_res + chi_0 where the readout tone is parked in practice, after
    the global IQ rotation that maximizes the 0-1 contrast.
    """
    chi = np.array([dispersive_shift(spec, res, i) for i in range(spec.n_levels)])
    probe = res.omega_res + chi[0]
    weights = rotate_for_contrast([s21(res, c, probe) for c in chi])[1].real
    weights.setflags(write=False)
    return weights


def coupling_capacitance(res: ResonatorParams, c_sigma: float) -> float:
    """Qubit-resonator coupling capacitance (F) implied by g.

    C_c = hbar g C_sigma / (2 e omega_res) * sqrt(pi / (2 hbar Z0)), with g
    and omega_res as angular frequencies and Z0 = RESONATOR_Z0.
    """
    if c_sigma <= 0.0:
        raise ValueError(f"c_sigma must be > 0, got {c_sigma!r}")
    g_ang = 2.0 * math.pi * res.g
    w_res_ang = 2.0 * math.pi * res.omega_res
    return (
        HBAR * g_ang * c_sigma / (2.0 * E_CHARGE * w_res_ang)
        * math.sqrt(math.pi / (2.0 * HBAR * RESONATOR_Z0))
    )

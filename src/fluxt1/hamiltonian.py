"""Fluxonium circuit spectrum: eigenenergies and operator matrix elements.

The circuit Hamiltonian is

    H = 4 E_C n^2 - E_J cos(phi) + E_L (phi - 2 pi Phi_ext/Phi0)^2 / 2

with all energies handled as linear frequencies (Hz, i.e. E/h). Angular
frequencies appear only inside downstream rate formulas. Diagonalization
uses a harmonic-oscillator basis centered on the quadratic well (the
external flux then lives inside the cosine). Its length is the geometric
mean of the LC length (2 E_C/E_L)^(1/4) and the length of the full curvature
E_L + E_J at the inductive minimum, (2 E_C/(E_L + E_J))^(1/4): the LC length
alone is too wide to resolve the cosine wells, the curvature length alone
too narrow to reach the outer wells, and as E_J -> 0 the mean tends to the
LC basis (Light & Carrington, Adv. Chem. Phys. 114, 263 (2000), on fitting
a grid to the potential). The truncation starts at 40 oscillator states and
grows until the retained energies are stable to one part in 1e9, so results
do not depend on the starting truncation; each solve computes only the
retained levels, not the whole basis spectrum.

All functions here are pure. A ``Spectrum``'s arrays are write-locked; its
``memo`` only holds values that downstream layers derive from those arrays,
so filling it twice gives the same result.

A threaded OpenBLAS splits a matrix product across its threads, and the tiles
at the split points round differently (``_phase_basis(100)`` moved by up to
6e-15 relative between one and two threads). ``diagonalize`` therefore runs
on one BLAS thread of numpy's and of scipy.linalg's OpenBLAS, and restores
their thread counts afterwards, so a spectrum has the same bits under any
``OPENBLAS_NUM_THREADS``. Other BLAS builds are left as they are.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import cython_lapack, eigh, eigh_tridiagonal

from .constants import E_CHARGE, H
from .errors import ConvergenceError, check_fields

DEFAULT_BASIS_DIM = 40
BASIS_GROWTH = 20
MAX_BASIS_DIM = 600
CONVERGENCE_RTOL = 1e-9


@dataclass(frozen=True)
class FluxoniumParams:
    """Circuit energies as linear frequencies: ej = E_J/h, ec = E_C/h, el = E_L/h (Hz)."""

    ej: float
    ec: float
    el: float

    def __post_init__(self):
        check_fields(self, ej="> 0", ec="> 0", el="> 0")

    @property
    def c_sigma(self) -> float:
        """Total shunt capacitance (F), from E_C = e^2 / (2 C_sigma)."""
        return E_CHARGE**2 / (2.0 * H * self.ec)


@dataclass(frozen=True)
class FluxBias:
    """External flux in units of the flux quantum, Phi_ext/Phi0."""

    phi_ext: float

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class Spectrum:
    """Truncated eigensystem of the fluxonium circuit.

    energies are ascending eigenenergies in Hz. n_elem, phi_elem and
    sin_half_elem are n_levels x n_levels matrix elements of the reduced
    charge, phase, and sin(phi/2) operators in the energy eigenbasis. The
    generating parameters and bias are carried along because downstream rate
    formulas need the circuit energies together with the matrix elements.
    ``memo`` holds what downstream layers derive from the spectrum, filled on
    first read: the ``BiasModel``s built on it share their rate data there.
    """

    params: FluxoniumParams
    bias: FluxBias
    energies: np.ndarray
    n_elem: np.ndarray
    phi_elem: np.ndarray
    sin_half_elem: np.ndarray
    basis_dim: int
    n_levels: int
    # diagonal of phi' (well-centered phase) per level, used for flux dispersion
    _phi_centered_diag: np.ndarray = field(repr=False, default=None)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def transition_frequency(self, i: int, j: int) -> float:
        """Signed transition frequency energies[j] - energies[i] in Hz."""
        if not (0 <= i < self.n_levels and 0 <= j < self.n_levels):
            raise IndexError(f"level indices ({i}, {j}) out of range for "
                             f"n_levels={self.n_levels}")
        return float(self.energies[j] - self.energies[i])


# (get, set) thread-count symbols of the OpenBLAS builds numpy and scipy ship
# (suffixed), then of a plain system OpenBLAS
_OPENBLAS_THREAD_API = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=1)
def _openblas_thread_controls() -> tuple:
    """(get, set) pairs of the OpenBLAS behind numpy (matmul and numpy.linalg
    share one) and behind scipy.linalg."""
    controls = []
    for module in (np.linalg._umath_linalg, cython_lapack):
        lib = ctypes.CDLL(module.__file__)  # lookups also search the libraries it links
        for get, set_ in _OPENBLAS_THREAD_API:
            if hasattr(lib, get) and hasattr(lib, set_):
                controls.append((getattr(lib, get), getattr(lib, set_)))
                break
    return tuple(controls)


_BLAS_THREADS_LOCK = threading.Lock()


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the thread counts.

    The counts are process-wide, so one body runs at a time.
    """
    controls = _openblas_thread_controls()
    with _BLAS_THREADS_LOCK:
        saved = [get() for get, _ in controls]
        for _, set_ in controls:
            set_(1)
        try:
            yield
        finally:
            for (_, set_), n in zip(controls, saved):
                set_(n)


def _lock(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=8)
def _phase_basis(dim: int):
    """Eigenbasis of the dimensionless phase quadrature x = a + a^dag.

    Returns (lam, d2_x, d_x, parity_x): eigenvalues of the truncated x, plus
    the truncated (a^dag - a)^2 and (a^dag - a) operators and the mirror
    parity diag((-1)^n) (x -> -x) rotated into that eigenbasis. Everything
    here is parameter-free, so one decomposition per truncation serves all
    circuits; in the x eigenbasis the potential is diagonal and only the
    kinetic term stays dense. ``diagonalize`` calls it on one BLAS thread, so
    the cached products have the same bits under any thread count.
    """
    ladder = np.sqrt(np.arange(1.0, dim))
    lam, u = eigh_tridiagonal(np.zeros(dim), ladder)
    a = np.diag(ladder, 1)
    d = a.T - a
    d_x = u.T @ d @ u
    d2_x = d_x @ d_x
    parity_x = (u.T * (-1.0) ** np.arange(dim)) @ u
    for arr in (lam, d2_x, d_x, parity_x):
        arr.setflags(write=False)
    return lam, d2_x, d_x, parity_x


def _solve_basis(params: FluxoniumParams, phi_ext: float, n_levels: int, dim: int,
                 energies_only: bool = False):
    """Diagonalize at a fixed oscillator-basis truncation ``dim``; with
    ``energies_only``, return the retained energies alone."""
    # geometric mean of the LC length and the full-curvature length (module doc)
    phi_zpf = (2.0 * params.ec / params.el) ** 0.25 \
        * (params.el / (params.el + params.ej)) ** 0.125
    n_zpf = 0.5 / phi_zpf
    theta = 2.0 * np.pi * phi_ext

    lam, d2_x, d_x, parity_x = _phase_basis(dim)
    phi_grid = phi_zpf * lam  # diagonal of phi' in its own eigenbasis
    h_mat = -4.0 * params.ec * n_zpf**2 * d2_x
    idx = np.arange(dim)
    h_mat[idx, idx] += -params.ej * np.cos(phi_grid + theta) + 0.5 * params.el * phi_grid**2
    if energies_only:
        return eigh(h_mat, subset_by_index=[0, n_levels - 1], eigvals_only=True)
    energies, v = eigh(h_mat, subset_by_index=[0, n_levels - 1])

    phi_centered = (v.T * phi_grid) @ v
    n_elem = 1j * n_zpf * (v.T @ d_x @ v)
    sin_half_elem = (v.T * np.sin(0.5 * (phi_grid + theta))) @ v
    if (2.0 * phi_ext) % 2.0 == 1.0:
        # at half-odd flux the potential is even in phi' and sin(phi/2) =
        # +-cos(phi'/2) is even too, so it cannot connect eigenstates of
        # opposite mirror parity (Pop et al., Nature 508, 369 (2014)); the
        # parity of each eigenvector is the sign of its expectation value
        parity = np.sign(((parity_x @ v) * v).sum(axis=0))
        sin_half_elem[parity[:, None] != parity] = 0.0
    phi_elem = phi_centered + theta * np.eye(n_levels)

    return energies, n_elem, phi_elem, sin_half_elem, np.diag(phi_centered).copy()


def diagonalize(
    params: FluxoniumParams,
    bias: FluxBias,
    n_levels: int = 6,
    basis_dim: int = DEFAULT_BASIS_DIM,
    convergence_rtol: float = CONVERGENCE_RTOL,
) -> Spectrum:
    """Diagonalize the circuit and return a converged ``Spectrum``.

    The truncation starts at ``basis_dim`` (40 by default) and grows in steps
    of 20 until the retained energies move by less than ``convergence_rtol``
    (relative to the spectrum scale) under one further growth step. Each step
    solves for the lowest ``n_levels`` eigenpairs only, and the starting
    truncation, which is only compared against, for their energies. Raises
    :class:`ConvergenceError` naming the last delta if the cap is reached.
    """
    if n_levels < 2:
        raise ValueError(f"n_levels must be >= 2, got {n_levels}")
    dim = max(int(basis_dim), n_levels + 10)

    with _one_blas_thread():
        prev_energies = _solve_basis(params, bias.phi_ext, n_levels, dim, energies_only=True)
        delta = np.inf
        while dim + BASIS_GROWTH <= MAX_BASIS_DIM:
            dim += BASIS_GROWTH
            energies, n_elem, phi_elem, sin_half_elem, phi_diag = _solve_basis(
                params, bias.phi_ext, n_levels, dim
            )
            scale = max(float(np.max(np.abs(energies))), 1.0)
            delta = float(np.max(np.abs(energies - prev_energies))) / scale
            if delta < convergence_rtol:
                return Spectrum(
                    params=params,
                    bias=bias,
                    energies=_lock(energies),
                    n_elem=_lock(n_elem),
                    phi_elem=_lock(phi_elem),
                    sin_half_elem=_lock(sin_half_elem),
                    basis_dim=dim,
                    n_levels=n_levels,
                    _phi_centered_diag=_lock(phi_diag),
                )
            prev_energies = energies
    raise ConvergenceError(
        f"spectrum not converged at basis_dim={dim} "
        f"(last relative change {delta:.3e} >= {convergence_rtol:.1e})"
    )


def flux_dispersion(params: FluxoniumParams, bias: FluxBias) -> float:
    """Slope of the 0->1 angular transition frequency vs external flux.

    Returns d(omega_01)/d(Phi_ext/Phi0) in rad/s per Phi0, computed via the
    Hellmann-Feynman derivative of the inductive term:
    dE_k/d(phi_ext) = -2 pi E_L <k|phi - 2 pi phi_ext|k>.
    """
    spec = diagonalize(params, bias, n_levels=2)
    de = -2.0 * np.pi * params.el * spec._phi_centered_diag
    return float(2.0 * np.pi * (de[1] - de[0]))

"""Shared fixtures: measured device parameters and cached spectra."""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from fluxt1.cli import cli
from fluxt1.hamiltonian import FluxBias, FluxoniumParams, diagonalize
from fluxt1.loss import Environment
from fluxt1.resonator import ResonatorParams

# Measured device summary: circuit energies (GHz), resonator frequency (GHz),
# coupling (MHz), linewidth (MHz), relative dispersive shift (MHz), qubit
# frequency at half flux (GHz), flux-noise amplitude (uPhi0/sqrt(Hz)).
DEVICE_TABLE = {
    "A1": dict(ej=3.54, ec=1.05, el=0.53, f_res=7.090, g=124, kappa=0.25,
               chi01=1.44, f01=0.362, sqrt_a_phi=10.4),
    "A2": dict(ej=3.94, ec=1.04, el=0.53, f_res=7.182, g=124, kappa=0.17,
               chi01=1.63, f01=0.279, sqrt_a_phi=5.3),
    "A3": dict(ej=4.38, ec=1.02, el=0.53, f_res=7.273, g=123, kappa=0.34,
               chi01=1.80, f01=0.214, sqrt_a_phi=4.3),
    "A4": dict(ej=5.41, ec=1.00, el=0.53, f_res=7.297, g=124, kappa=0.27,
               chi01=2.29, f01=0.115, sqrt_a_phi=6.4),
    "A5": dict(ej=7.11, ec=0.95, el=0.53, f_res=7.500, g=120, kappa=0.60,
               chi01=2.20, f01=0.042, sqrt_a_phi=2.4),
    "B1": dict(ej=3.15, ec=1.04, el=0.50, f_res=7.039, g=118, kappa=0.29,
               chi01=1.11, f01=0.427, sqrt_a_phi=5.2),
    "B2": dict(ej=3.52, ec=1.04, el=0.51, f_res=7.126, g=120, kappa=0.30,
               chi01=1.30, f01=0.343, sqrt_a_phi=5.7),
    "B3": dict(ej=3.81, ec=1.03, el=0.50, f_res=7.229, g=120, kappa=0.35,
               chi01=1.39, f01=0.284, sqrt_a_phi=4.3),
}

# Per-qubit mean effective quality factors from the six-level analysis.
MEAN_QCEFF = {
    "A1": 2.32e5, "A2": 2.68e5, "A3": 2.17e5, "A4": 1.75e5,
    "A5": 1.16e5, "B1": 3.11e5, "B2": 2.10e5, "B3": 2.81e5,
}


def params_of(qubit: str) -> FluxoniumParams:
    row = DEVICE_TABLE[qubit]
    return FluxoniumParams(ej=row["ej"] * 1e9, ec=row["ec"] * 1e9, el=row["el"] * 1e9)


def resonator_of(qubit: str) -> ResonatorParams:
    row = DEVICE_TABLE[qubit]
    return ResonatorParams(omega_res=row["f_res"] * 1e9, g=row["g"] * 1e6,
                           kappa=row["kappa"] * 1e6)


def environment_of(qubit: str, **overrides) -> Environment:
    row = DEVICE_TABLE[qubit]
    defaults = dict(a_phi=(row["sqrt_a_phi"] * 1e-6) ** 2,
                    qc_eff=MEAN_QCEFF[qubit], epsilon=0.25)
    defaults.update(overrides)
    return Environment(**defaults)


SHIPPED_DEVICE_DIR = Path(__file__).resolve().parents[1] / "devices"


def simulate_decay(qubit: str, phi: float, levels: int = 6) -> dict:
    """The data simulate-decay prints for a shipped device at phi and its
    mean qc_eff: the model of params_of, resonator_of and environment_of."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli(["simulate-decay", "--device", str(SHIPPED_DEVICE_DIR / f"{qubit.lower()}.json"),
                    "--flux", repr(float(phi)), "--levels", str(levels),
                    "--qceff", repr(MEAN_QCEFF[qubit])])
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())["data"]


@pytest.fixture(scope="session")
def b1_params():
    return params_of("B1")


@pytest.fixture(scope="session")
def b1_resonator():
    return resonator_of("B1")


@pytest.fixture(scope="session")
def b1_environment():
    return environment_of("B1")


@pytest.fixture(scope="session")
def b1_half_flux_spectrum(b1_params):
    return diagonalize(b1_params, FluxBias(0.5), n_levels=6)


@pytest.fixture()
def rng():
    # function-scoped: every test sees the same fresh stream regardless of
    # which other tests ran, keeping the suite order-independent
    return np.random.default_rng(20260810)

"""Fluxonium energy-relaxation modeling and quality-factor analysis.

Layered toolkit: circuit spectrum (hamiltonian), readout resonator response
(resonator), per-mechanism transition rates (loss), multilevel population
dynamics and decay-signal synthesis (dynamics), measured-T1 analysis
(pipeline), Welch statistics (stats), and file/CLI plumbing (io, cli).
"""

from .hamiltonian import FluxBias, FluxoniumParams, Spectrum, diagonalize
from .loss import Environment, Mechanism, build_mechanism_table
from .resonator import ResonatorParams
from .dynamics import RateMatrix, T1Mode, build_rate_matrix, predicted_t1
from .pipeline import QceffDistribution, T1Dataset, T1Record
from .stats import WelchResult, welch_t_test

__all__ = [
    "Environment",
    "FluxBias",
    "FluxoniumParams",
    "Mechanism",
    "QceffDistribution",
    "RateMatrix",
    "ResonatorParams",
    "Spectrum",
    "T1Dataset",
    "T1Mode",
    "T1Record",
    "WelchResult",
    "build_mechanism_table",
    "build_rate_matrix",
    "diagonalize",
    "predicted_t1",
    "welch_t_test",
]

__version__ = "0.1.0"

"""Physical constants used across the rate formulas (SI).

e, h and k are the exact defining constants of the 2019 SI, and hbar is
h / (2 pi) as scipy.constants computes it, so every value equals
scipy.constants' bit for bit without importing it at start-up.
"""

import math

E_CHARGE = 1.602176634e-19  # elementary charge, C
H = 6.62607015e-34  # Planck constant, J s
HBAR = H / (2.0 * math.pi)  # reduced Planck constant, J s
K_B = 1.380649e-23  # Boltzmann constant, J/K

# Superconducting flux quantum h/(2e), in Wb.
PHI0 = H / (2.0 * E_CHARGE)

__all__ = ["E_CHARGE", "H", "HBAR", "K_B", "PHI0"]

"""Physical constants (CODATA 2018) and the unit conversions used everywhere else.

The internal unit system is SI throughout; user-facing quantities in eV, nm
and atomic units are converted at the parsing boundary, never inside the
numerical core. Constants are compiled in, not configurable, so golden
outputs stay reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 reference values, SI units."""

    k_B: float = 1.380649e-23           # Boltzmann constant [J/K] (exact)
    hbar: float = 1.054571817e-34       # reduced Planck constant [J*s]
    c: float = 299792458.0              # speed of light [m/s] (exact)
    e: float = 1.602176634e-19          # elementary charge [C] (exact)
    m_e: float = 9.1093837015e-31       # electron mass [kg]
    eps0: float = 8.8541878128e-12      # vacuum permittivity [F/m]
    hartree: float = 4.3597447222071e-18  # Hartree energy [J]
    bohr_radius: float = 5.29177210903e-11  # Bohr radius [m]

    @property
    def au_polarizability(self) -> float:
        """Atomic unit of polarizability volume, ``bohr_radius**3`` [m^3]."""
        return self.bohr_radius ** 3

    @property
    def eV_to_rad_per_s(self) -> float:
        """Angular frequency of a 1 eV photon, ``e/hbar`` [(rad/s)/eV]."""
        return self.e / self.hbar


CODATA = PhysicalConstants()

K_B = CODATA.k_B
HBAR = CODATA.hbar
C_LIGHT = CODATA.c
E_CHARGE = CODATA.e
M_E = CODATA.m_e
EPS0 = CODATA.eps0
AU_POLARIZABILITY = CODATA.au_polarizability
EV_TO_RAD_PER_S = CODATA.eV_to_rad_per_s

# e^2/(4 pi eps0 m_e): turns oscillator strengths into a polarizability
# volume, alpha(i xi) = OSCILLATOR_PREFACTOR * sum_n f_n/(w_n^2 + xi^2) [m^3]
OSCILLATOR_PREFACTOR = E_CHARGE ** 2 / (4.0 * math.pi * EPS0 * M_E)


def ev_to_angular(x_eV):
    """Convert a photon energy in eV to an angular frequency in rad/s.

    Accepts scalars or arrays; negative energies are rejected.
    """
    x = np.asarray(x_eV, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("photon energy must be non-negative")
    out = x * EV_TO_RAD_PER_S
    return float(out) if np.isscalar(x_eV) else out


def au_volume_to_si(x_au):
    """Convert a polarizability from atomic units to a volume in m^3."""
    x = np.asarray(x_au, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("polarizability must be non-negative")
    out = x * AU_POLARIZABILITY
    return float(out) if np.isscalar(x_au) else out

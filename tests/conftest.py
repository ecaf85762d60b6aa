"""Shared fixtures: synthetic material tables and a reference atom."""

import os
from pathlib import Path

import numpy as np
import pytest

from atomwall import DrudeLowFreq, OpticalTable, OscillatorSet, ev_to_angular

# pytest puts src/ on sys.path (pyproject.toml); the CLI tests' child
# processes get it through PYTHONPATH, so a checkout needs no install
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

# Drude parameters used by every synthetic metal table in the suite
WP = 1.37e16  # rad/s
NU = 5e13    # rad/s


def drude_nk(omega, wp=WP, nu=NU):
    """Complex refractive index of a Drude metal on the real frequency axis."""
    eps = 1.0 - wp ** 2 / (omega * (omega + 1j * nu))
    root = np.sqrt(eps)
    return root.real, root.imag


def make_drude_table(n_points=500, e_min_eV=1e-3, e_max_eV=1e4, wp=WP, nu=NU):
    omega = ev_to_angular(np.geomspace(e_min_eV, e_max_eV, n_points))
    n, k = drude_nk(omega, wp, nu)
    return OpticalTable(omega=omega, n=n, k=k,
                        low_ext=DrudeLowFreq(omega_p=wp, nu=nu), high_exponent=3.0)


def drude_eps_analytic(xi, wp=WP, nu=NU):
    """Exact dispersion transform of the Drude absorption spectrum."""
    return 1.0 + wp ** 2 / (xi * (xi + nu))


# Lorentz dielectric, broad resonance so a finite table resolves it well
LORENTZ_C = 2.84
LORENTZ_W = 2e16   # rad/s
LORENTZ_G = 1e16   # rad/s


def make_lorentz_table(n_points=1200):
    omega = np.geomspace(1e13, 1e19, n_points)
    eps = 1.0 + LORENTZ_C * LORENTZ_W ** 2 / (
        LORENTZ_W ** 2 - omega ** 2 - 1j * LORENTZ_G * omega
    )
    root = np.sqrt(eps)
    return OpticalTable(omega=omega, n=root.real, k=np.abs(root.imag))


def lorentz_eps_analytic(xi):
    return 1.0 + LORENTZ_C * LORENTZ_W ** 2 / (
        LORENTZ_W ** 2 + xi ** 2 + LORENTZ_G * xi
    )


@pytest.fixture(scope="session")
def drude_table():
    return make_drude_table()


@pytest.fixture(scope="session")
def lorentz_table():
    return make_lorentz_table()


@pytest.fixture
def helium_like_atom():
    """Single-oscillator atom with alpha(0) about 315.6 atomic units."""
    return OscillatorSet(strengths=(0.5935,), frequencies=(ev_to_angular(1.18),))

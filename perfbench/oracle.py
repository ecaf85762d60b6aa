"""Independent reference for the Matsubara free energy of an atom and a wall.

Evaluates the same physics as ``atomwall.lifshitz.free_energy`` (see its
module docstring) without any of atomwall's numerical code: the permittivity
and polarizability are analytic models passed in as functions, every
per-frequency integral is done at once by ``scipy.integrate.quad_vec``
(adaptive Gauss-Kronrod), the reflection coefficients are written in a
cancellation-free form, and the sum is not truncated adaptively but runs to
zeta_l = 60.  Only the physical constants are taken from atomwall.  Agrees
with the library at ``quad_rel_tol`` 1e-11 to about 1e-13 from 3 nm to 10 um.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad_vec

from atomwall.constants import C_LIGHT, HBAR, K_B, OSCILLATOR_PREFACTOR

ZETA_MAX = 60.0   # e^-60 ~ 1e-26: later terms cannot reach the 1e-13 level
REL_TOL = 1e-13


def oscillator_alpha(omega0: float, strength: float):
    """alpha(i xi) [m^3] of one oscillator (rad/s) as a function of xi."""
    return lambda xi: OSCILLATOR_PREFACTOR * strength / (omega0 ** 2 + xi ** 2)


def plasma_eps(omega_p: float):
    return lambda xi: 1.0 + (omega_p / xi) ** 2


def drude_eps(omega_p: float, nu: float):
    return lambda xi: 1.0 + omega_p ** 2 / (xi * (xi + nu))


def free_energy(a: float, T: float, alpha, eps=None) -> float:
    """F in J at separation ``a`` [m] and temperature ``T`` [K] for a metal wall.

    ``alpha`` and ``eps`` map arrays of xi [rad/s] to alpha(i xi) and
    eps(i xi); ``eps=None`` is an ideal metal (both reflection coefficients
    1).  The l = 0 term is 2 alpha(0), the metal value of f(0).
    """
    zeta1 = 4.0 * math.pi * K_B * T * a / (HBAR * C_LIGHT)
    l = np.arange(1, math.ceil(ZETA_MAX / zeta1) + 1, dtype=float)
    zeta = zeta1 * l
    xi = 2.0 * math.pi * K_B * T * l / HBAR
    weight = alpha(xi) * np.exp(-zeta)
    if eps is None:
        def integrand(t):
            y = zeta + t
            return weight * math.exp(-t) * 2.0 * y * y
    else:
        e = eps(xi)
        w2 = zeta * zeta * (e - 1.0)

        def integrand(t):
            y = zeta + t
            s = np.sqrt(y * y + w2)
            r_par = ((e * e - 1.0) * y * y - w2) / (e * y + s) ** 2
            r_perp = w2 / (s + y) ** 2
            return weight * math.exp(-t) * ((2.0 * y * y - zeta * zeta) * r_par
                                           + zeta * zeta * r_perp)
    terms, _ = quad_vec(integrand, 0.0, math.inf, epsabs=0.0, epsrel=REL_TOL,
                        norm="max", limit=10000)
    bracket = 2.0 * float(alpha(np.zeros(1))[0]) + math.fsum(terms)
    return -K_B * T / (8.0 * a ** 3) * bracket

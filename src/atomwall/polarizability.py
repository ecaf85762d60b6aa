"""Atomic dynamic polarizability alpha(i xi), carried as a volume in m^3.

Three representations: a static value, an N-oscillator set

    alpha(i xi) = e^2/(4 pi eps0 m_e) * sum_n f_n / (w_n^2 + xi^2),

and a tabulated alpha(i xi) with monotone interpolation.  The volume
(Gaussian) convention makes k_B T alpha / a^3 directly an energy, which is
what the Lifshitz sum needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import OSCILLATOR_PREFACTOR
from .errors import DomainError, ValidationError, _check_rows
from .quadrature import pchip


@dataclass(frozen=True)
class StaticAlpha:
    """Frequency-independent polarizability (the static approximation)."""

    alpha0: float  # m^3; zero is allowed and yields a vanishing interaction

    def __post_init__(self):
        if self.alpha0 < 0.0 or not math.isfinite(self.alpha0):
            raise DomainError("alpha0 must be finite and non-negative")


@dataclass(frozen=True)
class OscillatorSet:
    """Oscillator strengths and transition frequencies of the N-oscillator model."""

    strengths: tuple    # f_0n, dimensionless > 0
    frequencies: tuple  # omega_0n, rad/s > 0

    def __post_init__(self):
        f = tuple(float(x) for x in self.strengths)
        w = tuple(float(x) for x in self.frequencies)
        object.__setattr__(self, "strengths", f)
        object.__setattr__(self, "frequencies", w)
        if len(f) == 0 or len(f) != len(w):
            raise ValidationError("need equally many strengths and frequencies, at least one")
        rows = np.array([w, f]).T
        _check_rows({"oscillator frequency and strength must be finite and positive":
                     np.all((rows > 0.0) & (rows < math.inf), axis=1)})

    @property
    def n_oscillators(self) -> int:
        return len(self.strengths)

    @property
    def strength_sum(self) -> float:
        return float(sum(self.strengths))


@dataclass(frozen=True, eq=False)
class TabulatedAlpha:
    """alpha(i xi) samples on an increasing xi grid that must start at xi = 0.

    Queries above the last row use a 1/xi^2 tail matched at that row (the
    oscillator form forces that asymptote).  Immutable, and hashed by identity.
    """

    xi: np.ndarray     # rad/s
    alpha: np.ndarray  # m^3

    def __post_init__(self):
        # read-only copies: an edit of the caller's arrays cannot reach the model
        for name in ("xi", "alpha"):
            rows = np.array(getattr(self, name), dtype=float)
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)
        xi, alpha = self.xi, self.alpha
        if xi.ndim != 1 or xi.shape != alpha.shape or xi.size < 2:
            raise ValidationError("need matching 1-d xi and alpha arrays with >= 2 rows")
        _check_rows({
            "tabulated polarizability must start with a xi = 0 row":
                (np.arange(xi.size) > 0) | (xi == 0.0),
            "xi values must be finite and strictly increasing":
                (xi < math.inf) & np.concatenate(([True], xi[1:] > xi[:-1])),
            "alpha values must be positive and finite": (alpha > 0.0) & (alpha < math.inf),
            "alpha values must be non-increasing in xi":
                np.concatenate(([True], alpha[1:] <= alpha[:-1])),
        })
        object.__setattr__(self, "_interp", pchip(xi, alpha))
        object.__setattr__(self, "_tail_c", float(alpha[-1] * xi[-1] ** 2))


def alpha_iw(model, xi):
    """alpha(i xi) in m^3 at imaginary frequency xi [rad/s], scalar or array."""
    arr = np.asarray(xi, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).astype(float)
    if np.any(flat < 0.0):
        raise DomainError("xi must be non-negative")
    if isinstance(model, StaticAlpha):
        out = np.full_like(flat, model.alpha0)
    elif isinstance(model, OscillatorSet):
        f = np.asarray(model.strengths)
        w = np.asarray(model.frequencies)
        out = OSCILLATOR_PREFACTOR * np.sum(
            f[None, :] / (w[None, :] ** 2 + flat[:, None] ** 2), axis=1
        )
    elif isinstance(model, TabulatedAlpha):
        out, above = np.empty_like(flat), flat > model.xi[-1]
        out[above] = model._tail_c / flat[above] ** 2
        out[~above] = model._interp(flat[~above])
    else:
        raise DomainError(f"unknown polarizability model {type(model).__name__}")
    return float(out[0]) if scalar else out.reshape(arr.shape)


def static_alpha(model) -> float:
    """alpha(0), the static polarizability in m^3."""
    return alpha_iw(model, 0.0)


def fit_single_oscillator(model) -> OscillatorSet:
    """Collapse a spectral model to the N = 1 oscillator set.

    The fit preserves alpha(0) exactly and matches the large-xi coefficient
    C_inf = lim xi^2 alpha(i xi), so both ends of the response are kept:
    w_0 = sqrt(C_inf/alpha(0)), f_0 chosen to reproduce alpha(0).
    """
    if isinstance(model, StaticAlpha):
        raise DomainError("a static polarizability carries no spectral information to fit")
    if isinstance(model, OscillatorSet):
        c_inf = OSCILLATOR_PREFACTOR * model.strength_sum
    elif isinstance(model, TabulatedAlpha):
        c_inf = model._tail_c
    else:
        raise DomainError(f"unknown polarizability model {type(model).__name__}")
    alpha0 = static_alpha(model)
    omega0 = math.sqrt(c_inf / alpha0)
    f_eff = alpha0 * omega0 ** 2 / OSCILLATOR_PREFACTOR
    return OscillatorSet((f_eff,), (omega0,))

"""Wall permittivity at imaginary frequency, eps(i xi), for all supported models.

Closed-form models (free-electron plasma, fixed static permittivity,
multi-oscillator Ninham-Parsegian) are evaluated directly.  Walls described
by tabulated optical constants go through the dispersion relation

    eps(i xi) = 1 + (2/pi) * int_0^inf  w eps''(w) / (w^2 + xi^2)  dw,

with eps''(w) = 2 n(w) k(w) built from the table.  The table covers a finite
window [w_min, w_max]; below it a metal is completed with a Drude tail
eps''(w) = wp^2 nu / (w (w^2 + nu^2)) and a dielectric with a power law
fitted to the first table segment, above it with a C/w^p tail matched
continuously at the last point.  ``eps_imag_part`` reads that completed
spectrum from its three pieces, and ``kk_transform`` integrates the same
pieces in s = ln w with one composite Gauss-Legendre rule: a panel per table
segment, plus unit panels into each completion.  It takes one xi or an
array of them, computes eps'' at the nodes of a rule once per call, and
lets each xi double its own order until its Gauss/anti-Gauss pair agrees.

``eps_iw`` always runs the transform.  A Matsubara sum queries eps(i xi) at
thousands of frequencies, so it reads a tabulated wall through ``eps_grid``
instead: a Chebyshev interpolant of log(eps - 1) in log xi over
[xi_lo, xi_hi] whose degree doubles until its last four coefficients sum to
at most ``kk.rel_tol`` (eps - 1 is a Stieltjes function of xi^2, so they
fall geometrically).  Interpolants are cached by (wall, xi_lo, xi_hi), and
the wall carries ``kk.rel_tol``, so one never depends on earlier queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np
from numpy.polynomial.chebyshev import chebfit, chebval

from .errors import ConfigError, ConvergenceError, DomainError, ValidationError, _check_rows
from .quadrature import adapt_pairs, gauss_legendre

METAL = "metal"
DIELECTRIC = "dielectric"

_TINY = 1e-300
_CHEB_START = 16   # degree of the first eps_grid interpolant; it doubles from here
_CHEB_CAP = 256
_KK_START = 4      # Gauss-Legendre order per panel of a transform's first pair
_KK_CAP = 128
_E_FOLDS = 40.0    # a completion is integrated until it has fallen by about e^-40
_CHUNK = 1 << 18   # integrand values evaluated at once


@dataclass(frozen=True)
class KKSettings:
    """Numerical controls for the dispersion-relation transform."""

    rel_tol: float = 1e-6

    def __post_init__(self):
        # the sum's interpolant of the transform levels off on rounding at up to
        # 4e-14; the transform itself converges down to 1e-15
        if not (1e-13 <= self.rel_tol <= 1e-2):
            raise DomainError("KK rel_tol must lie in [1e-13, 1e-2]")


DEFAULT_KK_SETTINGS = KKSettings()


@dataclass(frozen=True)
class DrudeLowFreq:
    """Drude completion of a metal table below its first point."""

    omega_p: float  # plasma frequency [rad/s]
    nu: float       # relaxation frequency [rad/s]

    def __post_init__(self):
        if not (0.0 < self.omega_p < math.inf and 0.0 < self.nu < math.inf):
            raise DomainError("Drude completion requires finite positive omega_p and nu")

    def eps2(self, omega):
        return self.omega_p ** 2 * self.nu / (omega * (omega ** 2 + self.nu ** 2))


@dataclass(frozen=True, eq=False)
class OpticalTable:
    """Measured (omega, n, k) rows plus the extrapolation attached to them.

    ``omega`` is in rad/s and strictly increasing, with at least 8 rows.
    ``high_exponent`` is the power p of the C/w^p tail above the table; the
    amplitude is matched continuously at the last row.
    """

    omega: np.ndarray
    n: np.ndarray
    k: np.ndarray
    low_ext: DrudeLowFreq | None = None
    high_exponent: float = 3.0

    def __post_init__(self):
        # read-only copies: an edit of the caller's arrays cannot reach the table
        for name in ("omega", "n", "k"):
            rows = np.array(getattr(self, name), dtype=float)
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)
        omega, n, k = self.omega, self.n, self.k
        if omega.ndim != 1 or omega.shape != n.shape or omega.shape != k.shape:
            raise ValidationError("omega, n, k must be 1-d arrays of equal length")
        if omega.size < 8:
            raise ValidationError(f"optical table needs at least 8 rows, got {omega.size}")
        _check_rows({
            "frequencies must be finite and positive": (omega > 0.0) & (omega < math.inf),
            "frequencies must be strictly increasing":
                np.concatenate(([True], omega[1:] > omega[:-1])),
            "n and k must be finite and non-negative":
                (n >= 0.0) & (n < math.inf) & (k >= 0.0) & (k < math.inf),
        })
        if not 0.0 < self.high_exponent < math.inf:
            raise DomainError("high-frequency tail exponent must be finite and positive")
        eps2 = 2.0 * n * k
        # tail amplitude matched at the last row: eps''(w) = C / w^p
        object.__setattr__(
            self, "high_amplitude", float(eps2[-1] * omega[-1] ** self.high_exponent)
        )
        object.__setattr__(self, "_slope_n", _segment_slopes(omega, n))
        object.__setattr__(self, "_slope_k", _segment_slopes(omega, k))
        # low-end power law eps'' ~ e0 (w/w0)^p fitted to the first segment; p is
        # kept only if it is positive, i.e. eps'' falls toward zero frequency
        e0, e1 = float(eps2[0]), float(eps2[1])
        slope = math.log(e1 / e0) / math.log(omega[1] / omega[0]) if 0.0 < e0 < e1 else 0.0
        object.__setattr__(self, "_low_e0", e0)
        object.__setattr__(self, "_low_slope", slope if slope > 0.0 else None)

    @property
    def omega_min(self) -> float:
        return float(self.omega[0])

    @property
    def omega_max(self) -> float:
        return float(self.omega[-1])


def _segment_slopes(omega, values):
    """Per-segment interpolation data for one optical constant.

    Log-log power laws between samples; segments touching a zero fall back
    to linear interpolation.  Returns (loglog_mask, slope).
    """
    v0, v1 = values[:-1], values[1:]
    w0, w1 = omega[:-1], omega[1:]
    loglog = (v0 > 0.0) & (v1 > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope_ll = np.log(np.where(loglog, v1 / v0, 1.0)) / np.log(w1 / w0)
    slope_lin = (v1 - v0) / (w1 - w0)
    slope = np.where(loglog, slope_ll, slope_lin)
    return loglog, slope


def _eps2_in_segments(table: OpticalTable, om, seg):
    """eps'' = 2 n k at points ``om`` lying in table segments ``seg``."""
    w0 = table.omega[seg]
    log_ratio = np.log(om / w0)
    out = 2.0
    for values, (loglog, slope) in ((table.n, table._slope_n), (table.k, table._slope_k)):
        v0, ll, s = values[seg], loglog[seg], slope[seg]
        powered = v0 * np.exp(np.where(ll, s, 0.0) * log_ratio)
        linear = v0 + s * (om - w0)
        out = out * np.where(ll, powered, np.maximum(linear, 0.0))
    return out


def _eps2_below_range(table: OpticalTable, omega):
    """eps'' continuation below the first table row."""
    if table.low_ext is not None:
        return table.low_ext.eps2(omega)
    if table._low_e0 == 0.0:
        return np.zeros_like(omega)
    if table._low_slope is None:
        raise ConfigError(
            "optical table rises toward zero frequency (metal-like) but has no "
            "Drude completion parameters; supply them to query below "
            f"{table.omega_min:g} rad/s"
        )
    return table._low_e0 * (omega / table.omega_min) ** table._low_slope


def _eps2_above_range(table: OpticalTable, omega):
    """eps'' continuation above the last table row, the matched C/w^p tail."""
    return table.high_amplitude * omega ** (-table.high_exponent)


def eps_imag_part(table: OpticalTable, omega):
    """eps''(omega) = 2 n k from the table, with its extrapolations.

    Inside the table range n and k are interpolated log-log between samples;
    below range the Drude or fitted power-law completion is used, above range
    the matched C/w^p tail.
    """
    om = np.asarray(omega, dtype=float)
    scalar = om.ndim == 0
    om = np.atleast_1d(om)
    if np.any(om <= 0.0):
        raise DomainError("frequency must be positive")
    out = np.empty_like(om)

    below = om < table.omega_min
    above = om > table.omega_max
    inside = ~(below | above)

    if np.any(inside):
        x = om[inside]
        seg = np.clip(
            np.searchsorted(table.omega, x, side="right") - 1, 0, table.omega.size - 2
        )
        out[inside] = _eps2_in_segments(table, x, seg)
    if np.any(below):
        out[below] = _eps2_below_range(table, om[below])
    if np.any(above):
        out[above] = _eps2_above_range(table, om[above])

    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Kramers-Kronig transform
# ---------------------------------------------------------------------------

def _completion_panels(table: OpticalTable, xs):
    """Unit panels in ln w below and above the table, per xi, as two int arrays.

    They reach until w^2 eps''/(w^2 + xi^2) has fallen by about e^-40.  The
    Drude completion rises as 1/w down to min(w_min, nu, xi), then falls as w;
    a power law e0 (w/w_min)^p falls at rate p, and at least p + 1 below xi (one
    that does not fall gets one panel, where ``_eps2_below_range`` raises); the
    tail rises at most up to xi, then falls at rate p.
    """
    if table.low_ext is not None:
        knee = np.minimum(min(table.omega_min, table.low_ext.nu), xs)
        low = np.ceil(np.log(table.omega_min / knee)) + _E_FOLDS
    elif table._low_slope is None:
        low = np.full_like(xs, table._low_e0 > 0.0)
    else:
        p = table._low_slope
        with np.errstate(divide="ignore"):  # xi = 0 lies infinitely far below
            above_xi = np.clip(np.log(table.omega_min / xs), 0.0, _E_FOLDS / p)
        low = np.ceil(above_xi + (_E_FOLDS - p * above_xi) / (p + 1.0))
        if low.max(initial=0.0) > math.log(table.omega_min) + 700.0:  # 1/w overflows
            raise ConfigError(f"eps'' below the table falls as w^{p:.3g}, too slowly "
                              "to integrate down to zero frequency")
    high = np.ceil(np.log(np.maximum(xs, table.omega_max) / table.omega_max))
    high += math.ceil(_E_FOLDS / table.high_exponent)
    return low.astype(int), (high * (table.high_amplitude > 0.0)).astype(int)


def kk_transform(table: OpticalTable, xi, rel_tol: float = 1e-6):
    """int_0^inf w eps''(w)/(w^2 + xi^2) dw over table plus completions.

    One composite Gauss-Legendre rule in s = ln w over w^2 eps''(w)/(w^2 + xi^2),
    eps'' from the pieces of ``eps_imag_part``: a panel per table segment plus
    the unit panels of ``_completion_panels``.  ``xi`` is a scalar or an array.
    Each xi pairs the rule with its anti-Gauss rule and doubles its own order
    from ``_KK_START`` until the pair agrees (``adapt_pairs``); eps'' at the
    nodes of a rule is computed once per call, and a value depends on its xi
    alone.  Every xi of the accuracy test met each rel_tol from 1e-2 to 1e-13
    within 0.02 of it against scipy quad.
    """
    xs = np.asarray(xi, dtype=float)
    if table.low_ext is not None and np.any(xs <= 0.0):
        raise DomainError("Drude-completed transform requires xi > 0")
    flat = xs.ravel()
    low, high = _completion_panels(table, flat)
    n_low = int(low.max(initial=0))
    ln_w = np.log(table.omega)
    edges = np.concatenate([ln_w[0] - np.arange(n_low, 0, -1), ln_w,
                            ln_w[-1] + np.arange(1, int(high.max(initial=0)) + 1)])
    segments = np.arange(ln_w.size - 1)

    @lru_cache(maxsize=None)   # one call's rules, shared by its panel groups
    def rule(order, anti):
        # per panel: 1/w at the nodes, and eps'' times the weight in s; the nodes of
        # table panel j lie in segment j, so eps'' is read without a search
        x, w = gauss_legendre(order, anti)
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        om = np.exp(0.5 * (edges[1:] + edges[:-1])[:, None] + half * x)
        eps2 = np.concatenate([
            _eps2_below_range(table, om[:n_low]),
            _eps2_in_segments(table, om[n_low:n_low + segments.size], segments[:, None]),
            _eps2_above_range(table, om[n_low + segments.size:])])
        return 1.0 / om, eps2 * (half * w)

    def pair(rows, panels, order):
        """The Gauss and anti-Gauss estimates at ``order`` of the xi ``rows``."""
        out = np.empty((2, rows.size))
        for anti in (False, True):
            inv_om, weighted = (a[panels].ravel() for a in rule(order, anti))
            step = max(1, _CHUNK // inv_om.size)  # bounds memory, not the values
            for i in range(0, rows.size, step):
                q = flat[rows[i:i + step], None] * inv_om
                q *= q
                q += 1.0
                # a plain row sum: einsum's rows depend on their neighbours past 8 192 columns
                out[int(anti), i:i + step] = np.divide(weighted, q, out=q).sum(axis=1)
        return out

    out = np.empty(flat.size)
    counts, group = np.unique(np.stack([low, high], axis=1), axis=0, return_inverse=True)
    for g, (n_below, n_above) in enumerate(counts.tolist()):
        panels = slice(n_low - n_below, n_low + table.omega.size - 1 + n_above)
        rows = np.flatnonzero(group.ravel() == g)
        out[rows] = adapt_pairs(
            "dispersion transform", lambda pending, n: pair(rows[pending], panels, n),
            rows.size, _KK_START, _KK_CAP, rel_tol,
            lambda pending: {"xi": float(flat[rows[pending[0]]]), "panels": (n_below, n_above)})[0]
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


# ---------------------------------------------------------------------------
# Wall models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdealMetal:
    """Perfect reflector; handled by a closed-form branch in the Lifshitz sum."""

    kind: ClassVar[str] = METAL


@dataclass(frozen=True)
class Plasma:
    """Free-electron plasma, eps(i xi) = 1 + (omega_p/xi)^2."""

    omega_p: float  # rad/s
    kind: ClassVar[str] = METAL

    def __post_init__(self):
        if not 0.0 < self.omega_p < math.inf:
            raise DomainError("plasma frequency must be finite and positive")


@dataclass(frozen=True)
class StaticPermittivity:
    """Dielectric described by its static permittivity at every frequency.

    Deliberately returns eps(0) at all xi, which is what the "static
    permittivity" comparison mode means.
    """

    eps_static: float
    kind: ClassVar[str] = DIELECTRIC

    def __post_init__(self):
        if not 1.0 <= self.eps_static < math.inf:
            raise DomainError("static permittivity must be finite and >= 1")


@dataclass(frozen=True)
class NinhamParsegian:
    """Oscillator representation eps(i xi) = 1 + sum_j C_j/(1 + xi^2/w_j^2)."""

    terms: tuple  # ((C_j, omega_j rad/s), ...)
    kind: ClassVar[str] = DIELECTRIC

    def __post_init__(self):
        terms = tuple((float(c), float(w)) for c, w in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise DomainError("at least one (C_j, omega_j) term required")
        bad = [j for j, (c, w) in enumerate(terms)
               if not (0.0 < c < math.inf and 0.0 < w < math.inf)]
        if bad:
            raise DomainError(f"terms[{bad[0]}]: Ninham-Parsegian terms must have finite C_j > 0, "
                              "omega_j > 0")


@dataclass(frozen=True, eq=False)
class TabulatedKK:
    """Wall permittivity reconstructed from tabulated optical constants.

    Immutable, and hashed by identity (``eps_grid`` caches by wall):
    ``eps_iw`` runs the dispersion transform at every query.
    """

    table: OpticalTable
    kind: str
    settings: KKSettings = DEFAULT_KK_SETTINGS

    def __post_init__(self):
        kind, table = self.kind, self.table
        if kind not in (METAL, DIELECTRIC):
            raise ConfigError(f"unknown material kind {kind!r}")
        if kind == METAL and table.low_ext is None:
            raise ConfigError(
                "a metal table requires Drude completion parameters (omega_p, nu) "
                "for the dispersion transform below its first row"
            )
        if kind == DIELECTRIC:
            if table.low_ext is not None:
                raise ConfigError("a dielectric table must not carry a Drude completion")
            if table._low_e0 > 0.0 and table._low_slope is None:
                raise ValidationError(
                    "dielectric table fails the zero-frequency convergence check: "
                    "eps'' must decay toward zero frequency"
                )

    def _build_grid(self, lo: float, hi: float):
        """eps(i xi) on [lo, hi] from a Chebyshev interpolant of log(eps - 1) in ln xi.

        The Chebyshev-Lobatto points cos(pi j/n) nest, so each doubling of n
        transforms only the new points, in one call.  An error in log(eps - 1)
        is a relative error in eps - 1.  Frequencies outside [lo, hi] go
        through the direct transform.
        """
        mid, half = 0.5 * (math.log(hi) + math.log(lo)), 0.5 * (math.log(hi) - math.log(lo))

        def log_eps1(x):
            # eps - 1 straight from the transform, not as a difference that cancels
            kk = kk_transform(self.table, np.exp(mid + half * x), self.settings.rel_tol)
            return np.log(np.maximum((2.0 / math.pi) * kk, _TINY))

        n = _CHEB_START
        x = np.cos(np.pi * np.arange(n + 1) / n)
        values = log_eps1(x)
        while True:
            coef = chebfit(x, values, n)
            # the last four coefficients, not two: a pair can sit in a trough
            estimate = float(np.abs(coef[-4:]).sum())
            if estimate <= self.settings.rel_tol:
                break
            if n >= _CHEB_CAP:
                raise ConvergenceError(
                    "Chebyshev interpolant of eps(i xi) did not reach kk.rel_tol",
                    degree=n, estimate=estimate, span=(lo, hi))
            n *= 2
            x = np.cos(np.pi * np.arange(n + 1) / n)
            old, values = values, np.empty(n + 1)
            values[0::2], values[1::2] = old, log_eps1(x[1::2])

        def grid(xi):
            xi = np.asarray(xi, dtype=float)
            inside = (xi >= lo) & (xi <= hi)
            out = np.empty_like(xi)
            out[inside] = 1.0 + np.exp(chebval((np.log(xi[inside]) - mid) / half, coef))
            if not np.all(inside):
                out[~inside] = eps_iw(self, xi[~inside])
            return out

        return grid


@lru_cache(maxsize=16)
def eps_grid(wall: TabulatedKK, xi_lo: float, xi_hi: float):
    """The wall's eps(i xi) interpolated on [xi_lo, xi_hi], built once per key."""
    if not 0.0 < xi_lo < xi_hi:
        raise DomainError("eps_grid needs 0 < xi_lo < xi_hi")
    return wall._build_grid(xi_lo, xi_hi)


# ---------------------------------------------------------------------------
# Dispatch operations
# ---------------------------------------------------------------------------

def eps_iw(model, xi):
    """Permittivity at imaginary frequency for any finite-response wall model.

    Accepts scalar or array ``xi`` in rad/s.  Metal models require xi > 0
    (their zero-frequency limit is handled separately through ``f0``);
    dielectric models accept xi >= 0.  The ideal metal has no finite
    permittivity and is rejected here by design.
    """
    if isinstance(model, IdealMetal):
        raise DomainError(
            "ideal metal has no finite permittivity; use the closed-form "
            "reflection branch instead"
        )
    arr = np.asarray(xi, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).astype(float)

    if getattr(model, "kind", None) == METAL and np.any(flat <= 0.0):
        raise DomainError("metal model undefined at xi <= 0; use f0 for the l=0 term")
    if np.any(flat < 0.0):
        raise DomainError("xi must be non-negative")

    if isinstance(model, Plasma):
        out = 1.0 + (model.omega_p / flat) ** 2
    elif isinstance(model, StaticPermittivity):
        out = np.full_like(flat, model.eps_static)
    elif isinstance(model, NinhamParsegian):
        out = np.ones_like(flat)
        for c, w in model.terms:
            out += c / (1.0 + (flat / w) ** 2)
    elif isinstance(model, TabulatedKK):
        out = 1.0 + (2.0 / math.pi) * kk_transform(model.table, flat, model.settings.rel_tol)
    else:
        raise ConfigError(f"unknown dielectric model {type(model).__name__}")
    return float(out[0]) if scalar else out.reshape(arr.shape)


def f0(model) -> float:
    """Zero-Matsubara-frequency reflection factor in [0, 1].

    1 for metals; (eps(0)-1)/(eps(0)+1) for dielectrics, with eps(0) =
    ``eps_iw(model, 0)`` (for tabulated dielectrics, the xi=0 dispersion
    transform).
    """
    if getattr(model, "kind", None) == METAL:
        return 1.0
    e0 = eps_iw(model, 0.0)
    return (e0 - 1.0) / (e0 + 1.0)

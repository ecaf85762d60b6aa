"""Finite-temperature free energy of a ground-state atom facing a flat wall.

The free energy is a Matsubara sum over imaginary frequencies,

    F(a,T) = -k_B T/(8 a^3) * { 2 alpha(0) f(0)
             + sum_{l>=1} alpha(i zeta_l w_c) *
               int_{zeta_l}^inf dy e^{-y} [(2y^2 - zeta_l^2) r_par + zeta_l^2 r_perp] },

with dimensionless Matsubara frequencies zeta_l = 4 pi l k_B T a/(hbar c),
the characteristic frequency w_c = c/(2a), and Fresnel-type reflection
coefficients r_par, r_perp evaluated at eps_l = eps(i zeta_l w_c).  With
alpha carried as a volume (m^3) the braced sum is a volume and F is in
joules; the result is negative (attractive) for every non-trivial input.

The per-frequency integral is shifted to y = zeta + t and evaluated with
exponentially weighted (Gauss-Laguerre) quadrature, each rule paired with its
anti-Gauss rule for an error estimate and doubled until that meets the
tolerance; an ideal-metal wall instead uses the closed form
int_zeta^inf 2 y^2 e^{-y} dy = 2 e^{-zeta} (zeta^2 + 2 zeta + 2).

zeta_1 spans several orders of magnitude over the supported separations, so
a plain sum up to the cutoff zeta_end (28 at the default series_rel_tol, 38
at its floor; ``_plan``) takes from a few terms to tens of thousands.
Where that is more than the alternative, the terms l < L are summed one by
one and the rest by Euler-Maclaurin (as for Lifshitz sums in Bordag,
Klimchitskaya, Mohideen and Mostepanenko, *Advances in the Casimir Effect*,
OUP 2009): every model takes any xi > 0, so the term f(l) at the continuous
frequency xi_1 l can be integrated over l and differentiated at L.  So a
batch plans every row (``_plan``) before ``free_energy_batch`` evaluates each once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .constants import C_LIGHT, HBAR, K_B
from .dielectric import IdealMetal, TabulatedKK, eps_grid, eps_iw, f0
from .errors import ConvergenceError, DomainError, UsageError
from .polarizability import TabulatedAlpha, alpha_iw, static_alpha
from .quadrature import adapt_pairs, gauss_laguerre, gauss_legendre

# separations where the plane-wall Lifshitz description is trusted
SOFT_RANGE = (3e-9, 1e-5)   # outside: warn
HARD_RANGE = (1e-9, 1e-4)   # outside: reject

_QUAD_CAP = 512   # the largest Gauss order of a pair
_QUAD_TOL_FLOOR = 1e-13     # tightest quad_rel_tol: met against a reference good to 1e-14
_CHUNK = 512       # quadrature rows integrated together, sized to stay in cache
_SERIES_TOL_FLOOR = 1e-13   # tightest series_rel_tol: at 1e-14 rounding leaves 6e-14 of the sum
_ZETA_MAX = 60.0   # the reach of a tabulated wall's grid (_sum_grid_span) at every tolerance
_TAIL_ORDER = 16   # Gauss-Legendre nodes per panel of the tail integral, in ln l
_MIDDLE_RATIO = 30.0   # the widest middle panel, as the ratio of its ends
_MIDDLE_CHUNK = 2048   # middle terms per interpolation matrix, to bound its memory
# f(L + s) at these shifts s gives f(L)/2 - f'(L)/12 + f'''(L)/720 - f^(5)(L)/30240,
# exactly for every polynomial of degree <= 6
_STENCIL = np.arange(-1.5, 2.0, 0.5)
_STENCIL_WEIGHTS = np.array([71.0, -578.0, 2203.0, 7560.0, -2203.0, 578.0, -71.0]) / 15120.0


@dataclass(frozen=True)
class NumericalTolerances:
    """Truncation and quadrature controls for the Matsubara sum."""

    series_rel_tol: float = 1e-9
    quad_rel_tol: float = 1e-9
    max_terms: int = 10 ** 6   # evaluations plus the alpha reads of a middle, per request

    def __post_init__(self):
        if not (_SERIES_TOL_FLOOR <= self.series_rel_tol < 1.0):
            raise DomainError(f"series_rel_tol must lie in [{_SERIES_TOL_FLOOR:g}, 1)")
        if not (_QUAD_TOL_FLOOR <= self.quad_rel_tol < 1.0):
            raise DomainError(f"quad_rel_tol must lie in [{_QUAD_TOL_FLOOR:g}, 1)")
        if self.max_terms < 1:
            raise DomainError("max_terms must be positive")


@dataclass(frozen=True)
class ComputationRequest:
    """One atom/wall/separation/temperature evaluation."""

    atom: object
    wall: object
    a: float  # separation [m]
    T: float  # temperature [K]
    tol: NumericalTolerances = field(default_factory=NumericalTolerances)

    def __post_init__(self):
        if not (self.a > 0.0 and 0.0 < self.T < math.inf):
            raise DomainError("separation must be positive, temperature finite and positive")
        if not (HARD_RANGE[0] <= self.a <= HARD_RANGE[1]):
            raise DomainError(f"separation {self.a:g} m outside supported range "
                              f"[{HARD_RANGE[0]:g}, {HARD_RANGE[1]:g}] m")


@dataclass
class FreeEnergyResult:
    free_energy: float     # J, negative = attractive
    classical_term: float  # J, l = 0 contribution
    thermal_term: float    # J, sum of all l >= 1 contributions
    n_terms_used: int      # integrand evaluations: exact terms, middle/tail nodes, stencil points
    max_quad_nodes: int
    normalized: float      # F / E_CP(a)
    warnings: list


def matsubara_zeta(l, a, T: float):
    """Dimensionless Matsubara frequency zeta_l = 4 pi l k_B T a/(hbar c).

    The matching physical frequency is zeta_l * w_c with w_c = c/(2a).
    ``l`` or ``a`` may be an array.
    """
    l_arr = np.asarray(l)
    if np.any(l_arr < 0):
        raise DomainError("Matsubara index must be >= 0")
    if np.any(np.asarray(a) <= 0.0) or T <= 0.0:
        raise DomainError("separation and temperature must be positive")
    out = 4.0 * math.pi * l_arr * K_B * T * a / (HBAR * C_LIGHT)
    return float(out) if np.ndim(out) == 0 else out


def _reflection_parts(eps, b, c, y):
    """(n, d_par, d_perp): r_par = (eps^2 - 1) n/d_par, r_perp = b/d_perp.

    b = zeta^2 (eps - 1), c = zeta^2/(eps + 1), n = y^2 - c, d_par = (eps y + s)^2,
    d_perp = (s + y)^2 and s = sqrt(y^2 + b): no term cancels, where (eps y - s)/(eps y + s)
    and (s - y)/(s + y) lose 1e-16/(eps - 1) of their value.  ``y`` has the
    shape of the result; arrays made from it are reused in place.
    """
    n = y * y
    s = n + b
    s **= 0.5   # the square root in place, and on the scalars of the public functions
    d_par = eps * y
    d_par += s
    d_par *= d_par
    s += y
    s *= s
    n -= c
    return n, d_par, s


def _reflection(eps, zeta, y):
    """(r_par, r_perp), both in [0, 1), at arguments that broadcast together."""
    eps, zeta, y = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (eps, zeta, y)))
    if np.any(eps < 1.0):
        raise DomainError("permittivity at imaginary frequency must be >= 1")
    if np.any(zeta < 0.0):
        raise DomainError("zeta must be >= 0")
    if np.any(y <= 0.0) or np.any(y < zeta):
        raise DomainError("need y >= zeta and y > 0")
    b, c = zeta * zeta * (eps - 1.0), zeta * zeta / (eps + 1.0)
    n, d_par, d_perp = _reflection_parts(eps, b, c, y)
    return (eps - 1.0) * (eps + 1.0) * n / d_par, b / d_perp


def reflection_par(eps, zeta, y):
    """Parallel-polarization reflection coefficient, in [0, 1)."""
    return _reflection(eps, zeta, y)[0]


def reflection_perp(eps, zeta, y):
    """Perpendicular-polarization reflection coefficient, in [0, 1)."""
    return _reflection(eps, zeta, y)[1]


def ideal_metal_integral(zeta):
    """Closed form of the per-frequency integral with r_par = r_perp = 1.

    int_zeta^inf 2 y^2 e^{-y} dy = 2 e^{-zeta} (zeta^2 + 2 zeta + 2).
    """
    z = np.asarray(zeta, dtype=float)
    if np.any(z < 0.0):
        raise DomainError("zeta must be >= 0")
    out = 2.0 * np.exp(-z) * (z * z + 2.0 * z + 2.0)
    return float(out) if np.isscalar(zeta) else out


def _row_constants(eps, zeta):
    """(eps, b, c, c - h, h c) of ``_integrand_rows`` per row, on a new first axis."""
    zeta2, c = zeta * zeta, zeta * zeta / (eps + 1.0)
    return np.stack([eps, zeta2 * (eps - 1.0), c, c - 0.5 * zeta2, 0.5 * zeta2 * c])


def _integrand_rows(rows, y):
    """The per-frequency integrand over its row factor 2 (eps^2 - 1), without e^{-y}.

    (2y^2 - zeta^2) r_par + zeta^2 r_perp = 2 (eps^2 - 1) [(y^2 - h) n/d_par + h c/d_perp],
    positive terms with h = zeta^2/2 and n, c, d_par, d_perp of ``_reflection_parts``.
    ``rows`` holds ``_row_constants`` in columns that broadcast against ``y``.
    """
    eps, b, c, c_minus_h, hc = rows
    n, out, d_perp = _reflection_parts(eps, b, c, y)
    np.divide(n, out, out=out)
    n += c_minus_h
    out *= n
    out += np.divide(hc, d_perp, out=d_perp)
    return out


def _quad_start(rel_tol: float) -> int:
    """The Gauss order n of a row's first anti-Gauss pair at ``rel_tol``."""
    return 8 if rel_tol >= 1e-8 else 12 if rel_tol >= 1e-10 else 16 if rel_tol >= 1e-11 else 24


def _matsubara_integral_block(eps, zeta, rel_tol):
    """Vectorized per-frequency integrals with per-row anti-Gauss error estimates.

    After the shift y = zeta + t the integrand is singular close to the
    lower limit: sqrt(y^2 + zeta^2 (eps-1)) branches at t = -zeta +- i width,
    width = zeta*sqrt(eps-1), a distance zeta*sqrt(eps) from t = 0, and r_par
    has a pole near t = -zeta.  A row with zeta < 4 or width < 0.5 is
    integrated as a Gauss-Legendre panel over [0, T], T = 5 zeta sqrt(eps)
    held to [0.5, 2], plus a Gauss-Laguerre rule beyond T; any other row is
    pure Gauss-Laguerre.  Each piece pairs its Gauss rule G with the anti-Gauss
    rule A of its weight (``adapt_pairs``), from n = 8, 12, 16 or 24 nodes as
    rel_tol falls (``_quad_start``) up to ``_QUAD_CAP``.  One scan set those and
    the panel up to zeta = 4: with a Laguerre rule alone there, G and A agreed
    by accident on rows that missed by up to 10 times rel_tol.  Rows are taken
    in chunks of ``_CHUNK``; each row's value depends on it alone.

    Returns (values, nodes per row: 2n + 1 per piece, worst accepted estimate).
    """
    eps, zeta = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (eps, zeta))
    width = zeta * np.sqrt(np.maximum(eps - 1.0, 0.0))
    near = (width > 0.0) & ((zeta < 4.0) | (width < 0.5))
    split_at = np.where(near, np.clip(5.0 * zeta * np.sqrt(eps), 0.5, 2.0), 0.0)
    constants = _row_constants(eps, zeta)[:, :, None]   # once per block, not per order
    tail_scale, panel_scale = np.exp(-(zeta + split_at)), 0.5 * split_at * np.exp(-zeta)

    def evaluate(pending, n):
        """Gauss-n and anti-Gauss estimates of the rows' integrals, over their row factor."""
        gauss, anti = np.empty((2, pending.size))
        (t, w), (t_anti, w_anti) = gauss_laguerre(n), gauss_laguerre(n, True)
        for i in range(0, pending.size, _CHUNK):
            rows, piece = pending[i:i + _CHUNK], slice(i, i + _CHUNK)
            row_constants, zeta_col, T = constants[:, rows], zeta[rows, None], split_at[rows]
            f = _integrand_rows(row_constants, zeta_col + T[:, None] + np.concatenate([t, t_anti]))
            # einsum, unlike BLAS gemv, sums each row the same way wherever it sits,
            # up to 8 192 columns (numpy 2.4), which _QUAD_CAP = 512 keeps
            gauss[piece] = tail_scale[rows] * np.einsum("ij,j->i", f[:, :n], w)
            anti[piece] = tail_scale[rows] * np.einsum("ij,j->i", f[:, n:], w_anti)
            panel_rows = np.nonzero(T > 0.0)[0]
            if panel_rows.size:
                (x, v), (x_anti, v_anti) = gauss_legendre(n), gauss_legendre(n, True)
                minus_t = -0.5 * T[panel_rows, None] * (np.concatenate([x, x_anti]) + 1.0)
                g = _integrand_rows(row_constants[:, panel_rows], zeta_col[panel_rows] - minus_t)
                g *= np.exp(minus_t)
                scale = panel_scale[rows[panel_rows]]
                gauss[i + panel_rows] += scale * np.einsum("ij,j->i", g[:, :n], v)
                anti[i + panel_rows] += scale * np.einsum("ij,j->i", g[:, n:], v_anti)
        return gauss, anti

    vals, orders, worst = adapt_pairs(
        "per-frequency quadrature", evaluate, eps.size, _quad_start(rel_tol), _QUAD_CAP, rel_tol,
        lambda rows: {"zeta": zeta[rows][:8].tolist(), "eps": eps[rows][:8].tolist()})
    vals *= 2.0 * (eps - 1.0) * (eps + 1.0)   # the row factor of _integrand_rows
    return vals, np.where(near, 2, 1) * (2 * orders + 1), worst


def matsubara_integral(eps: float, zeta: float, quad_rel_tol: float = 1e-9) -> float:
    """int_zeta^inf dy e^{-y} [(2y^2 - zeta^2) r_par + zeta^2 r_perp], always >= 0.

    Gauss-Laguerre rules and a panel near y = zeta, with anti-Gauss error estimates that
    meet ``quad_rel_tol``.
    """
    if eps < 1.0:
        raise DomainError("permittivity at imaginary frequency must be >= 1")
    if zeta < 0.0:
        raise DomainError("zeta must be >= 0")
    vals, _, _ = _matsubara_integral_block(eps, zeta, quad_rel_tol)
    return float(vals[0])


def casimir_polder_energy(alpha0: float, a: float) -> float:
    """Zero-temperature ideal-metal energy E(a) = -3 hbar c alpha(0)/(8 pi a^4)."""
    if alpha0 < 0.0:
        raise DomainError("alpha0 must be >= 0")
    if a <= 0.0:
        raise DomainError("separation must be positive")
    return -3.0 * HBAR * C_LIGHT * alpha0 / (8.0 * math.pi * a ** 4)


def _sum_grid_span(T: float):
    """[xi_1, xi at zeta = _ZETA_MAX and 1 nm], where a sum at T reads a tabulated wall.

    A sum reads up to zeta_end <= _ZETA_MAX at its separation; the span stays at
    _ZETA_MAX, so it depends on T alone and the wall's interpolant on no tolerance.
    Frequencies above it go through the direct transform.
    """
    xi1 = 2.0 * math.pi * K_B * T / HBAR
    return xi1, _ZETA_MAX * C_LIGHT / (2.0 * HARD_RANGE[0])


@lru_cache(maxsize=32)
def _lobatto_matrix(nodes: int, start: int, top: int, first: int, stop: int):
    """(l_k, B) with g(l) ~ sum_k B[k, l - first] g(l_k) at the integers first <= l < stop.

    l_k are ``nodes`` Chebyshev-Lobatto points in ln l of [start, top], and
    B is the polynomial through them in barycentric form (Berrut and Trefethen,
    SIAM Rev. 46, 501 (2004)).  Cached as the Gauss rules are.
    """
    lo, hi = math.log(start), math.log(top)
    l_k = np.exp(0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(np.linspace(0, np.pi, nodes)))
    l_k[0], l_k[-1] = start, top
    w = (-1.0) ** np.arange(nodes) * np.r_[0.5, np.ones(nodes - 2), 0.5]
    d = np.log(np.arange(first, stop)) - np.log(l_k)[:, None]
    b = w[:, None] / np.where(d == 0.0, 1e-300, d)   # a term on a node takes that node's value
    b /= b.sum(axis=0)
    l_k.flags.writeable = b.flags.writeable = False
    return l_k, b


def _middle_rows(tau: float, L: int, end: int, panels: int, nodes: int, alpha):
    """(l_k, W_k) with sum_{L<=l<=end} alpha(l) g(l) ~ sum_k W_k g(l_k); alpha[l - L] = alpha(l).

    On ``panels`` panels of equal width in ln l, which share their edge nodes, g(l) e^{tau l}
    is read from its ``nodes`` nodes (``_lobatto_matrix``) and alpha is summed term by term,
    W_k = e^{tau l_k} sum_l alpha(l) e^{-tau l} B_kl, in blocks whose order depends on the
    panel alone.  ``_plan`` sizes ``nodes`` to series_rel_tol.
    """
    edges = [L, *(round(L * (end / L) ** (p / panels)) for p in range(1, panels)), end]
    l_k, w_k = np.zeros((2, (nodes - 1) * panels + 1))
    for k, (start, top) in enumerate(zip(edges[:-1], edges[1:])):
        stop = top + 1 if top == end else top   # the next panel starts at top
        total = np.zeros(nodes)
        for first in range(start, stop, _MIDDLE_CHUNK):
            last = min(first + _MIDDLE_CHUNK, stop)
            panel_l, b = _lobatto_matrix(nodes, start, top, first, last)
            # einsum sums each row alone up to 8 192 columns (see _matsubara_integral_block)
            v = alpha[first - L:last - L] * np.exp(-tau * np.arange(first, last))
            total += np.einsum("kl,l->k", b, v)
        at = slice(k * (nodes - 1), (k + 1) * (nodes - 1) + 1)
        l_k[at] = panel_l
        w_k[at] += np.exp(tau * panel_l) * total
    return l_k, w_k


def _tail_points(tau, top: int, zeta_end: float, panels):
    """(i, l, weight) rows with sum_{l >= top} f(l) ~ sum weight * f(l) at separation tau[i].

    f(l) is the term at the continuous frequency xi_1 l, and the sum is
    int_top^inf f(l) dl + f(top)/2 - f'(top)/12 + f'''(top)/720 - f^(5)(top)/30240
    (Euler-Maclaurin).  The integral runs up to zeta = tau l = zeta_end over
    ``panels[i]`` Gauss-Legendre panels of _TAIL_ORDER nodes and equal width
    in ln l; the end corrections come from f at top + _STENCIL but top - 1,
    whose weight goes to the caller's row there.  Every separation's stencil
    rows come first, then every panel, each separation's in one order.
    """
    x, w = gauss_legendre(_TAIL_ORDER)
    shifts = _STENCIL != -1.0
    width = (np.log(zeta_end / tau) - math.log(top)) / panels   # of each panel, in ln l
    owner = np.repeat(np.arange(tau.size), panels)
    p = np.arange(owner.size) - np.repeat(np.cumsum(panels) - panels, panels)
    half = 0.5 * width[owner, None]
    nodes = np.exp(math.log(top) + width[owner, None] * p[:, None] + half * (x + 1.0))
    n_shifts = np.count_nonzero(shifts)
    return (np.concatenate([np.repeat(np.arange(tau.size), n_shifts),
                            np.repeat(owner, _TAIL_ORDER)]),
            np.concatenate([np.tile(top + _STENCIL[shifts], tau.size), nodes.ravel()]),
            np.concatenate([np.tile(_STENCIL_WEIGHTS[shifts], tau.size),
                            (half * w * nodes).ravel()]))


def _plan(atom, T: float, tol: NumericalTolerances, a):
    """(owner, l, zeta, weight, middle, extrapolated): the rows of the sums l >= 1 at ``a``.

    Row i adds (weight[i] alpha(i xi_1 l[i]) + middle[i]) g, with g the
    per-frequency integral at zeta[i] of separation a[owner[i]]: a middle node's
    alpha is already in ``middle``.  extrapolated[j] is whether a[j] reads a
    tabulated alpha above its last row.  The terms l < L are summed one by one
    and l >= top as a tail (``_tail_points``) wherever a plain sum to zeta_l =
    zeta_end takes more rows.  A tabulated alpha is only C^1 (PCHIP) up to its
    last row and kinked there, so its tail starts above the table, at top, and
    its middle L <= l < top is a product sum (``_middle_rows``) wherever that
    takes fewer rows than its terms; otherwise top = L.  The first separation
    over max_terms, in rows and middle alpha reads, raises ConvergenceError
    before alpha is read.

    Each size follows series_rel_tol, from one scan of 0.5 to 1e-13 against a
    plain sum to zeta = 60 (six walls, five atoms, 4 K to 3 000 K, 1 nm to
    100 um): the tail's error is at most 0.0132/L^7 of F, and L makes it half
    of series_rel_tol, down to L = 3, which keeps the stencil point L - 3/2 at
    a Matsubara term; zeta_end leaves a tenth of it to the remainder past the
    cutoff, largest on an ideal metal with a static atom, e^-z (z^2 + 4z + 6)/6
    of F (zeta_end is 28 at 1e-9 and 38 at the floor); the middle's
    interpolation gains a digit per 2.5 nodes, with at least 9, as 5 and 6
    missed 1e-2 and 1e-3 on the tabulated atoms.  The panel width (3.56 at
    1e-9, 2 at the floor) is from a scan against the closed form of an ideal
    metal with a static atom, whose tails are the longest (0.5 K to 1 000 K,
    1 nm to 10 um), where 3.2, 2.4 and 2.0 held at 1e-10, 1e-12 and 1e-13.
    """
    L = max(3, math.ceil((0.0264 / tol.series_rel_tol) ** (1.0 / 7.0)))
    zeta_end = 60.0
    for _ in range(4):   # toward the fixed point of e^-z (z^2 + 4z + 6)/6 = series_rel_tol/10
        zeta_end = math.log((zeta_end * (zeta_end + 4.0) + 6.0) / (0.6 * tol.series_rel_tol))
    width = 2.0 * (tol.series_rel_tol / 1e-13) ** (1.0 / 16.0)
    middle_nodes = max(9, math.ceil(-2.5 * math.log10(tol.series_rel_tol)))
    n, tau, xi1 = a.size, matsubara_zeta(1, a, T), _sum_grid_span(T)[0]
    tabulated = isinstance(atom, TabulatedAlpha)
    top = max(L, math.ceil(atom.xi[-1] / xi1) + 2) if tabulated else L
    plain = np.ceil(zeta_end / tau).astype(int)
    panels = np.maximum(np.ceil(np.log(zeta_end / (tau * top)) / width), 1).astype(int)
    em_cost = top - 1 + _STENCIL.size - 1 + panels * _TAIL_ORDER   # f(top - 1) is a head row
    em = plain > em_cost
    planned = np.where(em, em_cost, plain)
    head = np.where(em, top - 1, plain)   # the terms whose alpha is read one by one
    nodes = np.zeros(n, dtype=int)
    if top > L:   # a tabulated alpha: a middle wherever its panels take fewer rows than its terms
        middle = np.ceil(np.log(np.maximum(head, L + 1) / L) / math.log(_MIDDLE_RATIO)).astype(int)
        nodes = (middle_nodes - 1) * middle + 1
        nodes[head - L + 1 <= nodes] = 0
    over = planned + nodes > tol.max_terms   # every row and alpha read, before any is made
    if over.any():
        i = int(np.argmax(over))   # the first such separation, in request order
        raise ConvergenceError("Matsubara sum needs more evaluations than max_terms",
                               max_terms=tol.max_terms, evaluations=int(planned[i] + nodes[i]),
                               a=float(a[i]), T=T)
    mids, exact = np.nonzero(nodes)[0], head.copy()
    head[mids] = L - 1
    head_l = np.arange(1, head.sum() + 1) - np.repeat(np.cumsum(head) - head, head)
    parts = [(np.repeat(np.arange(n), head), head_l, np.ones(head_l.size),
              np.zeros(head_l.size))]   # owner, l, weight, middle
    if mids.size:
        alpha_l = alpha_iw(atom, xi1 * np.arange(L, int(exact[mids].max()) + 1))
        l_k, w_k = (np.concatenate(v) for v in zip(*(
            _middle_rows(tau[i], L, int(exact[i]), int(middle[i]), middle_nodes, alpha_l)
            for i in mids)))
        parts.append((np.repeat(mids, nodes[mids]), l_k, np.zeros(l_k.size), w_k))
    tails = np.nonzero(em)[0]
    i, tail_l, tail_w = _tail_points(tau[tails], top, zeta_end, panels[tails])
    parts.append((tails[i], tail_l, tail_w, np.zeros(tail_l.size)))
    owner, ls, weights, middle_w = (np.concatenate(v) for v in zip(*parts))
    # f(top - 1) of the stencil is the last head term or the last middle node
    weights[em[owner] & (ls == top - 1)] += _STENCIL_WEIGHTS[_STENCIL == -1.0]
    # a tail starts above the table; a plain sum reads up to its last term
    extrapolated = (em | (xi1 * plain > atom.xi[-1])) if tabulated else np.zeros(n, dtype=bool)
    return owner, ls, tau[owner] * ls, weights, middle_w, extrapolated


def free_energy_batch(requests) -> list:
    """Evaluate requests that share atom, temperature and tolerances; walls may differ.

    The l = 0 term always uses f(0) with the metal/dielectric distinction (metal
    permittivities diverge at zero frequency, so eps(i xi) is never queried
    there).  ``_plan`` makes the rows of each distinct separation once, in order
    of first appearance, and alpha(i xi) is read once per row whose weight is
    not 0; each distinct wall then reads eps(i xi) once per row of its
    separations and integrates them in one ``_matsubara_integral_block`` call.
    A request's ``n_terms_used`` is its row count.  Each result equals
    ``free_energy`` of its request alone, in any order and next to any other
    wall.
    """
    requests = list(requests)
    if not requests:
        return []
    atom, T, tol = requests[0].atom, requests[0].T, requests[0].tol
    if any((r.atom, r.T, r.tol) != (atom, T, tol) for r in requests):
        raise UsageError("a batch needs one atom, temperature and tolerance set")
    warnings = [[] for _ in requests]
    for w, r in zip(warnings, requests):
        if not (SOFT_RANGE[0] <= r.a <= SOFT_RANGE[1]):
            w.append(f"separation {r.a:g} m outside the trusted window "
                     f"[{SOFT_RANGE[0]:g}, {SOFT_RANGE[1]:g}] m")

    alpha0 = static_alpha(atom)
    if alpha0 == 0.0:
        return [FreeEnergyResult(0.0, 0.0, 0.0, 0, 0, 0.0,
                                 w + ["static polarizability is zero; free energy vanishes"])
                for w in warnings]
    separations, walls = {}, {}   # each distinct one, numbered in order of first appearance
    sep = [separations.setdefault(r.a, len(separations)) for r in requests]
    wall_of = [walls.setdefault(r.wall, len(walls)) for r in requests]
    bracket0 = [2.0 * alpha0 * f0(wall) for wall in walls]
    owner, ls, zeta, weights, middle, extrapolated = _plan(
        atom, T, tol, np.array(list(separations)))

    # every row once, in plan order: alpha where a weight takes it, then eps per row and wall
    xi1, xi_top = _sum_grid_span(T)
    xis = xi1 * ls
    alpha, read = np.zeros(ls.size), weights != 0.0
    alpha[read] = alpha_iw(atom, xis[read])
    thermal = np.zeros((len(walls), len(separations)))
    max_nodes = np.zeros(thermal.shape, dtype=int)
    for w, wall in enumerate(walls):
        wanted = np.zeros(len(separations), dtype=bool)
        wanted[[j for j, v in zip(sep, wall_of) if v == w]] = True
        rows = slice(None) if wanted.all() else wanted[owner]
        if isinstance(wall, IdealMetal):
            terms = ideal_metal_integral(zeta[rows])
        else:
            grid = eps_grid(wall, xi1, xi_top) if isinstance(wall, TabulatedKK) else None
            eps_l = eps_iw(wall, xis[rows]) if grid is None else grid(xis[rows])
            terms, nodes, _ = _matsubara_integral_block(eps_l, zeta[rows], tol.quad_rel_tol)
            np.maximum.at(max_nodes[w], owner[rows], nodes)
        terms = weights[rows] * (alpha[rows] * terms) + middle[rows] * terms
        thermal[w] = np.bincount(owner[rows], terms, minlength=len(separations))

    evaluations = np.bincount(owner, minlength=len(separations)).tolist()
    thermal, max_nodes, extrapolated = thermal.tolist(), max_nodes.tolist(), extrapolated.tolist()
    results = []
    for r, j, w, warns in zip(requests, sep, wall_of, warnings):
        prefactor = K_B * T / (8.0 * r.a ** 3)
        result_f = -prefactor * (bracket0[w] + thermal[w][j])
        if extrapolated[j]:
            warns.append("polarizability table extrapolated beyond its last row (1/xi^2 tail)")
        results.append(FreeEnergyResult(
            free_energy=result_f,
            classical_term=-prefactor * bracket0[w],
            thermal_term=-prefactor * thermal[w][j],
            n_terms_used=evaluations[j],
            max_quad_nodes=max_nodes[w][j],
            normalized=result_f / casimir_polder_energy(alpha0, r.a),
            warnings=warns,
        ))
    return results


def free_energy(req: ComputationRequest) -> FreeEnergyResult:
    """Evaluate the Matsubara free-energy sum for one request (a batch of one)."""
    return free_energy_batch([req])[0]


def normalized_free_energy(req: ComputationRequest) -> float:
    """F(a,T)/E(a); positive, since both energies are negative."""
    if static_alpha(req.atom) <= 0.0:
        raise DomainError("normalization needs a positive static polarizability")
    return free_energy(req).normalized


def correction_factor(reference: ComputationRequest, variant: ComputationRequest) -> float:
    """Ratio of the variant's free energy to the reference's at equal (a, T)."""
    if reference.a != variant.a or reference.T != variant.T:
        raise UsageError("correction factor requires matching separation and temperature")
    ref = free_energy(reference).free_energy
    if ref == 0.0:
        raise UsageError("reference free energy vanishes; factor undefined")
    return free_energy(variant).free_energy / ref

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
exponentially weighted (Gauss-Laguerre) quadrature whose order doubles until
successive estimates agree; an ideal-metal wall instead uses the closed form
int_zeta^inf 2 y^2 e^{-y} dy = 2 e^{-zeta} (zeta^2 + 2 zeta + 2).  The sum
is truncated adaptively, since zeta_1 spans several orders of magnitude over
the supported separation range.

The frequencies xi_l = 2 pi k_B T l/hbar do not depend on the separation,
so ``free_energy_batch`` sums every separation of one atom, wall,
temperature and tolerance set in shared rounds.  In each round a separation
integrates its own next block of l: 64 terms first, then a block sized from
its own last two terms, so few rows past its last term are integrated.
eps(i xi_l) and alpha(i xi_l) are evaluated once per l of a round, and each
separation stops on its own truncation test.  ``free_energy`` is a batch of
one, and a batch returns exactly what each request gives alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import C_LIGHT, HBAR, K_B
from .dielectric import IdealMetal, TabulatedKK, eps_grid, eps_iw, f0
from .errors import ConvergenceError, DomainError, UsageError
from .polarizability import TabulatedAlpha, alpha_iw, static_alpha
from .quadrature import gauss_laguerre, gauss_legendre

# separations where the plane-wall Lifshitz description is trusted
SOFT_RANGE = (3e-9, 1e-5)   # outside: warn
HARD_RANGE = (1e-9, 1e-4)   # outside: reject

_QUAD_START = 32
_QUAD_CAP = 512
_TERMS_START = 64   # terms in a first block; later blocks hold 128, 256, ... terms at most
_TERMS_CAP = 8192   # the longest block, which bounds the memory of one round
_CHUNK = 512       # quadrature rows integrated together, sized to stay in cache
_SERIES_TOL_FLOOR = 1e-14   # the tightest series_rel_tol accepted


@dataclass(frozen=True)
class NumericalTolerances:
    """Truncation and quadrature controls for the Matsubara sum."""

    series_rel_tol: float = 1e-9
    quad_rel_tol: float = 1e-9
    max_terms: int = 10 ** 6
    consecutive_small: int = 3

    def __post_init__(self):
        if not (_SERIES_TOL_FLOOR <= self.series_rel_tol < 1.0):
            raise DomainError(f"series_rel_tol must lie in [{_SERIES_TOL_FLOOR:g}, 1)")
        if not (0.0 < self.quad_rel_tol < 1.0):
            raise DomainError("quad_rel_tol must lie in (0, 1)")
        if self.max_terms < 1 or self.consecutive_small < 1:
            raise DomainError("max_terms and consecutive_small must be positive")


@dataclass(frozen=True)
class ComputationRequest:
    """One atom/wall/separation/temperature evaluation."""

    atom: object
    wall: object
    a: float  # separation [m]
    T: float  # temperature [K]
    tol: NumericalTolerances = field(default_factory=NumericalTolerances)

    def __post_init__(self):
        if self.a <= 0.0 or self.T <= 0.0:
            raise DomainError("separation and temperature must be positive")
        if not (HARD_RANGE[0] <= self.a <= HARD_RANGE[1]):
            raise DomainError(
                f"separation {self.a:g} m outside supported range "
                f"[{HARD_RANGE[0]:g}, {HARD_RANGE[1]:g}] m"
            )


@dataclass
class FreeEnergyResult:
    free_energy: float     # J, negative = attractive
    classical_term: float  # J, l = 0 contribution
    thermal_term: float    # J, sum of all l >= 1 contributions
    n_terms_used: int
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


def _sqrt_term(eps, zeta, y):
    return np.sqrt(y * y + zeta * zeta * (eps - 1.0))


def _check_reflection_args(eps, zeta, y):
    if np.any(np.asarray(eps) < 1.0):
        raise DomainError("permittivity at imaginary frequency must be >= 1")
    if np.any(np.asarray(zeta) < 0.0):
        raise DomainError("zeta must be >= 0")
    if np.any(np.asarray(y) <= 0.0) or np.any(np.asarray(y) < np.asarray(zeta)):
        raise DomainError("need y >= zeta and y > 0")


def reflection_par(eps, zeta, y):
    """Parallel-polarization reflection coefficient, in [0, 1)."""
    _check_reflection_args(eps, zeta, y)
    s = _sqrt_term(eps, zeta, y)
    return (eps * y - s) / (eps * y + s)


def reflection_perp(eps, zeta, y):
    """Perpendicular-polarization reflection coefficient, in [0, 1)."""
    _check_reflection_args(eps, zeta, y)
    s = _sqrt_term(eps, zeta, y)
    return (s - y) / (s + y)


def ideal_metal_integral(zeta):
    """Closed form of the per-frequency integral with r_par = r_perp = 1.

    int_zeta^inf 2 y^2 e^{-y} dy = 2 e^{-zeta} (zeta^2 + 2 zeta + 2).
    """
    z = np.asarray(zeta, dtype=float)
    if np.any(z < 0.0):
        raise DomainError("zeta must be >= 0")
    out = 2.0 * np.exp(-z) * (z * z + 2.0 * z + 2.0)
    return float(out) if np.isscalar(zeta) else out


def _integrand_rows(eps_col, zeta_col, y):
    """Integrand of the per-frequency integral without the e^{-y} weight.

    The operations and their order are those of
    (2y^2 - zeta^2) r_par + zeta^2 r_perp written out, so the bits are the
    same; the full-size temporaries are reused in place to stay in cache.
    """
    zeta2 = zeta_col * zeta_col
    s = y * y
    s += zeta2 * (eps_col - 1.0)
    np.sqrt(s, out=s)
    ey = eps_col * y
    r_par = ey - s
    ey += s
    r_par /= ey
    r_perp = np.subtract(s, y, out=ey)
    s += y
    r_perp /= s
    out = np.multiply(y, 2.0, out=s)
    out *= y
    out -= zeta2
    out *= r_par
    r_perp *= zeta2
    out += r_perp
    return out


def _integrate_chunk(eps, zeta, rel_tol):
    """Per-row order doubling for one chunk of rows; see _matsubara_integral_block."""
    width = zeta * np.sqrt(np.maximum(eps - 1.0, 0.0))
    split_at = np.where((width > 0.0) & (width < 1.0), np.minimum(2.0, 5.0 * width), 0.0)

    def evaluate(rows, order):
        eps_col = eps[rows, None]
        zeta_col = zeta[rows, None]
        T = split_at[rows]
        t, w_lag = gauss_laguerre(order)
        tail = _integrand_rows(eps_col, zeta_col, zeta_col + T[:, None] + t[None, :])
        # einsum, unlike BLAS gemv, sums each row the same way wherever it sits
        total = np.exp(-(zeta[rows] + T)) * np.einsum("ij,j->i", tail, w_lag)
        panel_rows = np.nonzero(T > 0.0)[0]
        if panel_rows.size:
            x, w_leg = gauss_legendre(order)
            half = 0.5 * T[panel_rows, None]
            tt = half * (x[None, :] + 1.0)
            g = _integrand_rows(eps_col[panel_rows], zeta_col[panel_rows],
                                zeta_col[panel_rows] + tt)
            g *= np.exp(-tt)
            panel = half[:, 0] * np.einsum("ij,j->i", g, w_leg)
            total[panel_rows] += np.exp(-zeta[rows][panel_rows]) * panel
        return total

    pending = np.arange(eps.size)
    vals = evaluate(pending, _QUAD_START)
    orders = np.empty(eps.size, dtype=int)
    order = 2 * _QUAD_START
    worst_delta = 0.0
    while True:
        new = evaluate(pending, order)
        old = vals[pending]
        delta = np.abs(new - old)
        scale = np.maximum(np.abs(new), 1e-300)
        vals[pending] = new
        orders[pending] = order
        converged = delta <= rel_tol * scale
        if np.any(converged):
            worst_delta = max(worst_delta, float((delta[converged] / scale[converged]).max()))
        pending = pending[~converged]
        if pending.size == 0:
            return vals, np.where(split_at > 0.0, 2 * orders, orders), worst_delta
        if order >= _QUAD_CAP:
            raise ConvergenceError(
                "per-frequency quadrature did not converge within the node budget",
                order=order, unconverged=int(pending.size),
                worst_rel_delta=float((delta[~converged] / scale[~converged]).max()),
                zeta=zeta[pending][:8].tolist(), eps=eps[pending][:8].tolist(),
            )
        order *= 2


def _matsubara_integral_block(eps, zeta, rel_tol):
    """Vectorized per-frequency integrals with per-row order doubling.

    After the shift y = zeta + t the reflection coefficients still carry a
    feature of width zeta*sqrt(eps-1) at the lower limit (the branch scale of
    sqrt(y^2 + zeta^2 (eps-1))).  When that width is below 1 the row is
    integrated as a Gauss-Legendre panel over [0, T] covering the feature
    plus a Gauss-Laguerre rule beyond T; otherwise pure Gauss-Laguerre is
    spectrally accurate.  Both pieces share one order that doubles until
    successive composite estimates agree to ``rel_tol``.  Rows are taken in
    chunks of ``_CHUNK``, and each row's value depends on that row alone.

    Returns (values, nodes used per row, max_final_rel_delta).
    """
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    chunks = [_integrate_chunk(eps[i:i + _CHUNK], zeta[i:i + _CHUNK], rel_tol)
              for i in range(0, eps.size, _CHUNK)]
    vals, nodes, deltas = zip(*chunks)
    return np.concatenate(vals), np.concatenate(nodes), max(deltas)


def matsubara_integral(eps: float, zeta: float, quad_rel_tol: float = 1e-9) -> float:
    """int_zeta^inf dy e^{-y} [(2y^2 - zeta^2) r_par + zeta^2 r_perp].

    Evaluated after the shift y = zeta + t as
    e^{-zeta} int_0^inf e^{-t} g(zeta + t) dt with Gauss-Laguerre rules whose
    order doubles (32 up to 512) until successive estimates agree to
    ``quad_rel_tol``.  Always >= 0.
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


def _series_length_estimate(tau, rel_tol: float):
    """Upper estimate of the Matsubara index where truncation will trigger, per zeta_1."""
    x_stop = -np.log(rel_tol * np.minimum(tau, 1.0)) + 25.0
    return np.ceil(x_stop / tau).astype(int) + 16


def _sum_grid_span(T: float):
    """[xi_1, xi_1 l_hi], where a sum at T reads a tabulated wall through eps_grid.

    l_hi is the series-length estimate at the shortest supported separation
    and the tightest accepted series_rel_tol, so the span depends on T alone.
    """
    xi1 = 2.0 * math.pi * K_B * T / HBAR
    l_hi = _series_length_estimate(matsubara_zeta(1, HARD_RANGE[0], T), _SERIES_TOL_FLOOR)
    return xi1, float(xi1 * l_hi)


def _next_block(n_terms, budget, last, ratio, accumulated, tol):
    """Terms in the next block of each separation still summing.

    The least of three limits, each from that separation's own history:
    ``_TERMS_START`` more than its total so far (the doubling blocks 64,
    128, 256, ... up to ``_TERMS_CAP``); the k terms its geometric tail
    last * r^k * r/(1 - r), r the ratio of its last two terms, needs to
    fall below ``series_rel_tol`` of the accumulated sum, with 15 % and
    ``consecutive_small`` + 2 terms to spare; and what is left of its
    series-length estimate (of ``max_terms`` once it is past the estimate).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.log(tol.series_rel_tol * accumulated * (1.0 - ratio) / (last * ratio)) / np.log(ratio)
    # fmax sends a NaN k (r so small it underflows) to 0
    k = np.where((last > 0.0) & (ratio < 1.0), np.minimum(np.fmax(1.15 * k, 0.0), _TERMS_CAP),
                 _TERMS_CAP)
    predicted = np.ceil(k).astype(int) + (tol.consecutive_small + 2)
    remaining = np.where(budget > n_terms, budget, tol.max_terms) - n_terms
    doubling = np.minimum(n_terms + _TERMS_START, _TERMS_CAP)
    return np.minimum(np.minimum(doubling, predicted), remaining)


def free_energy_batch(requests) -> list:
    """Evaluate requests that share atom, wall, temperature and tolerances.

    The l = 0 term always uses f(0) with the metal/dielectric distinction
    (metal permittivities diverge at zero frequency, so eps(i xi) is never
    queried there).  Terms l >= 1 run in rounds; in each round every
    separation still summing integrates its own next block of l (see
    ``_next_block``), and eps(i xi) and alpha(i xi) are evaluated once per l
    for all of them.  A separation stops once the estimated geometric tail
    of its series stays below ``series_rel_tol`` relative to its accumulated
    sum for ``consecutive_small`` consecutive terms.  Each result equals
    ``free_energy`` of its request alone, in any order.
    """
    requests = list(requests)
    if not requests:
        return []
    atom, wall, T, tol = requests[0].atom, requests[0].wall, requests[0].T, requests[0].tol
    if any((r.atom, r.wall, r.T, r.tol) != (atom, wall, T, tol) for r in requests):
        raise UsageError("a batch needs one atom, wall, temperature and tolerance set")
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
    bracket0 = 2.0 * alpha0 * f0(wall)

    tau = matsubara_zeta(1, np.array([r.a for r in requests]), T)
    budget = np.minimum(tol.max_terms, _series_length_estimate(tau, tol.series_rel_tol))
    xi1, xi_top = _sum_grid_span(T)
    ideal = isinstance(wall, IdealMetal)
    grid = eps_grid(wall, xi1, xi_top) if isinstance(wall, TabulatedKK) else None

    n = len(requests)
    thermal = np.zeros(n)             # sum of the terms l >= 1 so far
    n_terms = np.zeros(n, dtype=int)
    max_nodes = np.zeros(n, dtype=int)
    prev = np.full(n, np.nan)         # last term summed
    prev_ratio = np.full(n, np.nan)   # its ratio to the term before
    small_run = np.zeros(n, dtype=int)
    block = np.minimum(_TERMS_START, budget)   # the first block of each separation
    exhausted = np.zeros(n, dtype=bool)
    running = np.arange(n)
    while running.size:
        # one row per separation with its own block of l, padded at the end
        start, length = n_terms[running] + 1, block[running]
        position = np.arange(1, length.max() + 1)
        pad = position > length[:, None]
        ls = (start - 1)[:, None] + position
        lo, hi = int(start.min()), int((start + length).max())
        xis = xi1 * np.arange(lo, hi)      # every l of the round, once
        if ideal:
            terms = ideal_metal_integral(tau[running, None] * ls)
        else:
            eps_l = eps_iw(wall, xis) if grid is None else grid(xis)
            held = ~pad
            terms = np.zeros(ls.shape)
            nodes = np.zeros(ls.shape, dtype=int)
            terms[held], nodes[held], _ = _matsubara_integral_block(
                eps_l[ls[held] - lo], (tau[running, None] * ls)[held], tol.quad_rel_tol)
        terms *= np.take(alpha_iw(atom, xis), ls - lo, mode="clip")
        terms[pad] = np.nan   # no truncation test below accepts the padding

        # the per-term truncation test, one row per separation
        sums = np.cumsum(np.column_stack([thermal[running], terms]), axis=1)[:, 1:]
        before = np.column_stack([prev[running], terms[:, :-1]])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = terms / before
            tail = terms * ratio / (1.0 - ratio)
        small = (terms == 0.0) | ((before > 0.0) & (ratio < 1.0)
                                  & (tail <= tol.series_rel_tol * (bracket0 + sums)))
        last_big = np.maximum.accumulate(np.where(small, 0, position), axis=1)
        runs = position - last_big + np.where(last_big == 0, small_run[running, None], 0)
        stops = runs >= tol.consecutive_small
        stopped = stops.any(axis=1)
        used = np.where(stopped, stops.argmax(axis=1) + 1, length)

        rows, last = np.arange(running.size), used - 1
        thermal[running] = sums[rows, last]
        prev[running] = terms[rows, last]
        prev_ratio[running] = ratio[rows, last]
        small_run[running] = runs[rows, last]
        n_terms[running] += used
        if not ideal:
            summed_nodes = np.where(position <= used[:, None], nodes, 0).max(axis=1)
            max_nodes[running] = np.maximum(max_nodes[running], summed_nodes)
        exhausted[running] = ~stopped & (n_terms[running] >= tol.max_terms)
        running = running[~stopped & ~exhausted[running]]
        block[running] = _next_block(n_terms[running], budget[running], prev[running],
                                     prev_ratio[running], bracket0 + thermal[running], tol)
    if exhausted.any():
        i = int(np.argmax(exhausted))   # the first such request, in request order
        raise ConvergenceError(
            "Matsubara sum not converged within max_terms",
            max_terms=tol.max_terms, last_term=float(prev[i]),
            accumulated=float(bracket0 + thermal[i]), a=requests[i].a, T=T,
        )

    results = []
    for i, req in enumerate(requests):
        prefactor = K_B * T / (8.0 * req.a ** 3)
        result_f = -prefactor * float(bracket0 + thermal[i])
        if isinstance(atom, TabulatedAlpha) and xi1 * n_terms[i] > atom.xi[-1]:
            warnings[i].append(
                "polarizability table extrapolated beyond its last row (1/xi^2 tail)"
            )
        results.append(FreeEnergyResult(
            free_energy=result_f,
            classical_term=-prefactor * bracket0,
            thermal_term=-prefactor * float(thermal[i]),
            n_terms_used=int(n_terms[i]),
            max_quad_nodes=int(max_nodes[i]),
            normalized=result_f / casimir_polder_energy(alpha0, req.a),
            warnings=warnings[i],
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

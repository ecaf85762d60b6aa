import math
from dataclasses import FrozenInstanceError
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atomwall import (
    CODATA,
    ComputationRequest,
    ConvergenceError,
    DomainError,
    IdealMetal,
    KKSettings,
    NinhamParsegian,
    NumericalTolerances,
    OscillatorSet,
    Plasma,
    StaticAlpha,
    StaticPermittivity,
    TabulatedAlpha,
    TabulatedKK,
    UsageError,
    alpha_iw,
    au_volume_to_si,
    casimir_polder_energy,
    correction_factor,
    eps_iw,
    ev_to_angular,
    f0,
    fit_single_oscillator,
    free_energy,
    free_energy_batch,
    ideal_metal_integral,
    matsubara_integral,
    matsubara_zeta,
    normalized_free_energy,
    reflection_par,
    reflection_perp,
)

from atomwall import lifshitz
from atomwall.constants import C_LIGHT
from atomwall.dielectric import DIELECTRIC, METAL, DrudeLowFreq, OpticalTable, eps_grid
from atomwall.lifshitz import (
    _integrand_rows,
    _matsubara_integral_block,
    _plan,
    _row_constants,
    _sum_grid_span,
)
from atomwall.quadrature import gauss_legendre

from conftest import drude_nk, make_drude_table, make_lorentz_table

ALPHA0 = au_volume_to_si(315.63)


def ideal_static_closed_form(alpha0, a, T):
    """Geometric-series closed form for ideal metal + static polarizability."""
    tau = matsubara_zeta(1, a, T)
    q = math.exp(-tau)
    omq = -math.expm1(-tau)  # 1 - q without cancellation
    s0 = q / omq
    s1 = q / omq ** 2
    s2 = q * (1.0 + q) / omq ** 3
    bracket = 2.0 + 2.0 * (tau * tau * s2 + 2.0 * tau * s1 + 2.0 * s0)
    return -(CODATA.k_B * T * alpha0) / (8.0 * a ** 3) * bracket


class TestMatsubaraZeta:
    def test_zero_index(self):
        assert matsubara_zeta(0, 3e-9, 300.0) == 0.0

    def test_reference_value(self):
        # 4 pi k_B T a/(hbar c) at a = 3 nm, T = 300 K
        assert matsubara_zeta(1, 3e-9, 300.0) == pytest.approx(4.94e-3, rel=1e-3)

    def test_linearity(self):
        for l in (1, 2, 5, 17):
            assert matsubara_zeta(2 * l, 1e-8, 250.0) == pytest.approx(
                2.0 * matsubara_zeta(l, 1e-8, 250.0), rel=1e-15
            )

    def test_separation_array_matches_scalar_calls(self):
        a = np.geomspace(1e-9, 1e-4, 37)
        assert matsubara_zeta(1, a, 300.0).tolist() == [matsubara_zeta(1, x, 300.0) for x in a]

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            matsubara_zeta(-1, 1e-8, 300.0)
        with pytest.raises(DomainError):
            matsubara_zeta(1, np.array([1e-8, 0.0]), 300.0)


def _textbook(eps, zeta, y):
    """r_par, r_perp and (2y^2 - zeta^2) r_par + zeta^2 r_perp, to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        e, z, y = Decimal(float(eps)), Decimal(float(zeta)), Decimal(float(y))
        s = (y * y + z * z * (e - 1)).sqrt() if z else y   # y * y is rounded to 60 digits
        r_par, r_perp = (e * y - s) / (e * y + s), (s - y) / (s + y)
        return r_par, r_perp, (2 * y * y - z * z) * r_par + z * z * r_perp


class TestReflectionCoefficients:
    def test_vacuum(self):
        assert reflection_par(1.0, 0.5, 1.0) == 0.0
        assert reflection_perp(1.0, 0.5, 1.0) == 0.0

    def test_zero_zeta(self):
        for eps in (1.5, 3.84, 100.0):
            assert reflection_par(eps, 0.0, 2.0) == pytest.approx(
                (eps - 1.0) / (eps + 1.0), rel=1e-14
            )
            assert reflection_perp(eps, 0.0, 2.0) == 0.0

    def test_hand_value(self):
        # eps = 2, zeta = y = 1: both polarizations give 3 - 2 sqrt(2)
        expected = 3.0 - 2.0 * math.sqrt(2.0)
        assert reflection_par(2.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert reflection_perp(2.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_bounds_on_random_arguments(self):
        rng = np.random.default_rng(21)
        eps = np.exp(rng.uniform(0.0, np.log(1e6), 10_000))
        zeta = rng.uniform(0.0, 30.0, 10_000)
        y = zeta + rng.exponential(1.0, 10_000) + 1e-12
        r_par = reflection_par(eps, zeta, y)
        r_perp = reflection_perp(eps, zeta, y)
        assert np.all(r_perp >= 0.0)
        assert np.all(r_perp <= r_par)
        assert np.all(r_par < 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        # eps up to 1e12: far beyond any wall here (a 9 eV plasma at 300 K gives ~3e3)
        eps=st.floats(1.0, 1e12),
        zeta=st.one_of(st.just(0.0), st.floats(1e-8, 1e3)),
        excess=st.floats(0.0, 1e3),
    )
    def test_bounds_property(self, eps, zeta, excess):
        y = max(zeta + excess, 1e-8)
        for r in (reflection_par(eps, zeta, y), reflection_perp(eps, zeta, y)):
            assert 0.0 <= r < 1.0

    def test_against_high_precision_reference(self):
        # eps - 1 down to 1e-12, where the quotients (eps y - s)/(eps y + s) and
        # (s - y)/(s + y) lose about 1e-16/(eps - 1) of their value in doubles
        rng = np.random.default_rng(23)
        eps = 1.0 + 10.0 ** rng.uniform(-12.0, 7.0, 400)
        zeta = 10.0 ** rng.uniform(-6.0, math.log10(60.0), 400) * (rng.random(400) > 0.1)
        y = zeta + 10.0 ** rng.uniform(-6.0, 2.0, 400)
        # rows whose textbook r_par loses about 1e-4, 4e-11 and 1e-7 of its value
        weak = [(1.0 + 1e-12, 30.0, 31.0), (1.0 + 2.6e-6, 56.0, 57.5), (1.0 + 1e-9, 1e-6, 1e-6)]
        eps, zeta, y = (np.concatenate([v, w]) for v, w in zip((eps, zeta, y), zip(*weak)))
        computed = (reflection_par(eps, zeta, y), reflection_perp(eps, zeta, y),
                    _integrand(eps, zeta, y))
        for got, want in zip(computed, zip(*map(_textbook, eps, zeta, y))):
            want = np.array([float(w) for w in want])
            assert np.all(np.abs(got - want) <= 1e-14 * want)

    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.floats(1.0, 1e8), st.floats(0.0, 1e3)),
                      min_size=1, max_size=6),
        t=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=8),
    )
    def test_integrand_rows_is_built_from_the_coefficients(self, rows, t):
        eps_col, zeta_col = np.array(rows).T[:, :, None]
        y = zeta_col + np.array(t)[None, :]
        r_par = reflection_par(eps_col, zeta_col, y)
        r_perp = reflection_perp(eps_col, zeta_col, y)
        written_out = (2.0 * y * y - zeta_col ** 2) * r_par + zeta_col ** 2 * r_perp
        integrand = _integrand(eps_col, zeta_col, y)
        assert np.all(np.abs(integrand - written_out) <= 1e-14 * written_out)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reflection_par(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            reflection_perp(2.0, 2.0, 1.0)  # y < zeta
        with pytest.raises(DomainError):
            reflection_par(2.0, 0.0, 0.0)


class TestMatsubaraIntegral:
    def test_vacuum_vanishes(self):
        for zeta in (0.0, 0.3, 5.0):
            assert matsubara_integral(1.0, zeta) == 0.0

    def test_closed_form_at_zero_zeta(self):
        # zeta = 0: r_par = 1/3 constant, integral = (1/3) * 2 Gamma(3) = 4/3
        assert matsubara_integral(2.0, 0.0) == pytest.approx(4.0 / 3.0, rel=1e-9)

    def test_non_negative(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            eps = float(np.exp(rng.uniform(0.0, np.log(1e4))))
            zeta = float(rng.uniform(0.0, 20.0))
            assert matsubara_integral(eps, zeta) >= 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            matsubara_integral(0.99, 1.0)
        with pytest.raises(DomainError):
            matsubara_integral(2.0, -0.1)

    def test_node_budget_raises_with_diagnostics(self, monkeypatch):
        # at quad_rel_tol 1e-13 the pairs start at order 24; the first row needs 96
        monkeypatch.setattr(lifshitz, "_QUAD_CAP", 64)
        eps, zeta = np.array([1.14105918, 2.0]), np.array([2.1369e-4, 0.1])
        with pytest.raises(ConvergenceError) as info:
            _matsubara_integral_block(eps, zeta, 1e-13)
        diagnostics = info.value.diagnostics
        assert set(diagnostics) == {"order", "unconverged", "worst_rel_delta", "zeta", "eps"}
        assert diagnostics["order"] == 48 and diagnostics["worst_rel_delta"] > 1e-13


def _integrand(eps_col, zeta_col, y):
    """The per-frequency integrand: _integrand_rows times its row factor."""
    return (2.0 * (eps_col - 1.0) * (eps_col + 1.0)
            * _integrand_rows(_row_constants(eps_col, zeta_col), y))


def _dense_reference(eps, zeta, order=48):
    """Per-frequency integrals by composite Gauss-Legendre in t = y - zeta.

    Every singularity of the integrand lies at least zeta from t = 0, so
    panels that grow by 1.5 from 1e-3 min(zeta, 1) up to t = 120 (e^-120 of
    the integral left; reached for zeta >= 5e-6) each see it far outside
    their own width.
    """
    eps_col = np.asarray(eps, dtype=float)[:, None]
    zeta_col = np.asarray(zeta, dtype=float)[:, None]
    x, w = gauss_legendre(order)
    edges = np.minimum(1e-3 * np.minimum(zeta_col, 1.0) * 1.5 ** np.arange(60), 120.0)
    edges = np.concatenate([np.zeros_like(zeta_col), edges], axis=1)
    half = 0.5 * np.diff(edges, axis=1)
    t = (edges[:, :-1, None] + half[:, :, None] * (x + 1.0)).reshape(edges.shape[0], -1)
    g = _integrand(eps_col, zeta_col, zeta_col + t) * np.exp(-t)
    panels = g.reshape(half.shape + (order,)) @ w
    return np.exp(-zeta_col[:, 0]) * (half * panels).sum(axis=1)


# the (eps, zeta) rows of the reference check: small and large zeta, eps near 1 and large
_CHECKED_ROWS = [(1.05, 1e-3), (2526.0, 0.0216), (3.84, 0.02), (1.7e7, 0.1), (1.5, 2.0),
                 (1.0001, 40.0), (400.0, 5.0), (12.0, 60.0), (1.0 + 1e-10, 50.0),
                 (1.0 + 1e-6, 1e-3)]


def test_dense_reference_matches_scipy_quad():
    from scipy.integrate import quad

    eps, zeta = np.array(_CHECKED_ROWS).T
    for e, z, ref in zip(eps, zeta, _dense_reference(eps, zeta)):
        def f(t):
            return float(_integrand(np.array([[e]]), np.array([[z]]),
                                    np.array([[z + t]]))[0, 0] * math.exp(-z - t))
        breaks = sorted({0.0, 100.0} | {p for p in (z / 100, z, z * math.sqrt(e - 1.0), 1.0, 10.0)
                                         if 0.0 < p < 100.0})
        value = sum(quad(f, lo, hi, epsabs=0.0, epsrel=2e-14, limit=500)[0]
                    for lo, hi in zip(breaks[:-1], breaks[1:]))
        # a tenth of the tightest quad_rel_tol
        assert ref == pytest.approx(value, rel=1e-14, abs=0.0), (e, z)


# the wall models a sum integrates, each read at an imaginary frequency; the
# weak plasma reaches eps - 1 of about 1e-10
_QUAD_WALLS = {
    "plasma": Plasma(ev_to_angular(9.0)),
    "weak_plasma": Plasma(ev_to_angular(0.05)),
    "ninham_parsegian": NinhamParsegian(((1.93, ev_to_angular(0.13)),
                                         (0.91, ev_to_angular(12.5)))),
    "static": StaticPermittivity(4.0),
    "drude_table": TabulatedKK(make_drude_table(), METAL),
    "lorentz_table": TabulatedKK(make_lorentz_table(), DIELECTRIC),
}


class TestQuadratureAgainstDenseReference:
    """A Gauss rule and its anti-Gauss rule can agree by accident; a dense rule would see it."""

    @settings(max_examples=150, deadline=None)
    @given(
        wall=st.sampled_from(list(_QUAD_WALLS)),
        # log10 of (separation [m], zeta): eps is read at xi = zeta c/(2a)
        rows=st.lists(st.tuples(st.floats(-9.0, -4.0), st.floats(-5.0, math.log10(60.0))),
                      min_size=1, max_size=6),
        quad_rel_tol=st.sampled_from([1e-9, 1e-11, 1e-13]),
    )
    # zeta sqrt(eps) = 3e-4, where doubled orders 16 and 32 agreed to 1e-12 and both missed as much
    @example(wall="static", rows=[(-9.0, math.log10(1.55e-4))], quad_rel_tol=1e-12)
    @example(wall="static", rows=[(-9.0, math.log10(1.55e-4))], quad_rel_tol=1e-13)
    def test_within_quad_rel_tol(self, wall, rows, quad_rel_tol):
        a, zeta = 10.0 ** np.array(rows).T
        eps = eps_iw(_QUAD_WALLS[wall], zeta * C_LIGHT / (2.0 * a))
        values, _, _ = _matsubara_integral_block(eps, zeta, quad_rel_tol)
        errors = np.abs(values / _dense_reference(eps, zeta) - 1.0)
        assert np.all(errors <= quad_rel_tol), (eps, zeta, errors)


# every order a pair can reach: a start order of some quad_rel_tol, doubled up to _QUAD_CAP
_PAIR_ORDERS = sorted({start * 2 ** k for start in {lifshitz._quad_start(10.0 ** -d)
                                                    for d in range(1, 14)}
                       for k in range(12) if start * 2 ** k <= lifshitz._QUAD_CAP})


@pytest.mark.parametrize("order", _PAIR_ORDERS)
def test_row_bits_do_not_depend_on_the_rest_of_its_chunk(monkeypatch, order):
    # einsum sums a row alone up to 8 192 columns (numpy 2.4), and a piece of a
    # pair has 2 order + 1
    monkeypatch.setattr(lifshitz, "_quad_start", lambda rel_tol: order)
    rng = np.random.default_rng(37)
    eps = 1.0 + 10.0 ** rng.uniform(-6.0, 4.0, lifshitz._CHUNK)
    zeta = 10.0 ** rng.uniform(-5.0, math.log10(60.0), lifshitz._CHUNK)
    values, nodes, _ = _matsubara_integral_block(eps, zeta, 0.5)
    assert set(nodes // (2 * order + 1)) == {1, 2}   # every row at its first pair, both kinds
    for i in range(0, lifshitz._CHUNK, 17):
        alone, _, _ = _matsubara_integral_block(eps[i:i + 1], zeta[i:i + 1], 0.5)
        assert alone[0].hex() == values[i].hex(), (eps[i], zeta[i])


def _table_config_wall():
    """The 200-row Drude n,k wall of the tabulated ``table`` config in test_golden.py."""
    omega = ev_to_angular(np.geomspace(1e-3, 1e4, 200))
    wp, nu = ev_to_angular(9.0), ev_to_angular(0.035)
    n, k = drude_nk(omega, wp, nu)
    return TabulatedKK(OpticalTable(omega, n, k, low_ext=DrudeLowFreq(wp, nu)), METAL)


def test_tabulated_models_own_read_only_copies_of_their_rows():
    # a caller's later edit of its arrays reaches neither an answer nor a cached interpolant
    omega = ev_to_angular(np.geomspace(1e-3, 1e4, 200))
    wp, nu = ev_to_angular(9.0), ev_to_angular(0.035)
    n, k = drude_nk(omega, wp, nu)
    xi = ev_to_angular(np.concatenate(([0.0], np.geomspace(1e-3, 50.0, 119))))
    alpha = alpha_iw(OscillatorSet((0.5935,), (ev_to_angular(1.18),)), xi)
    wall = TabulatedKK(OpticalTable(omega, n, k, low_ext=DrudeLowFreq(wp, nu)), METAL)
    atom = TabulatedAlpha(xi, alpha)

    def answers():
        res = free_energy(ComputationRequest(atom=atom, wall=wall, a=3e-9, T=300.0))
        return (eps_iw(wall, ev_to_angular(2.0)), res.free_energy, alpha_iw(atom, 0.0),
                fit_single_oscillator(atom))

    before = answers()
    n[50:150] *= 1.5
    alpha[0] *= 2.0
    assert answers() == before
    for rows in (wall.table.omega, wall.table.n, wall.table.k, atom.xi, atom.alpha):
        with pytest.raises(ValueError):
            rows[0] = 1.0
    with pytest.raises(FrozenInstanceError):
        wall.settings = KKSettings(rel_tol=1e-3)


def test_row_just_wider_than_one_converges_at_the_floor():
    # the l = 1 row at 13 nm and 300 K of the tabulated table config, on its
    # Drude table and on a 9 eV plasma: zeta = 0.0216, eps about 2 526 and
    # 3 071, width zeta sqrt(eps - 1) above 1
    a = float(np.geomspace(3.0, 10000.0, 12)[2]) * 1e-9
    xi1, xi_top = _sum_grid_span(300.0)
    eps = np.array([eps_grid(_table_config_wall(), xi1, xi_top)(np.array([xi1]))[0],
                    eps_iw(Plasma(ev_to_angular(9.0)), xi1)])
    zeta = np.full(2, matsubara_zeta(1, a, 300.0))
    assert zeta[0] == pytest.approx(0.0216, rel=1e-2)
    assert eps == pytest.approx([2526.0, 3071.0], rel=1e-3)
    assert np.all(zeta * np.sqrt(eps - 1.0) > 1.0)
    values, _, _ = _matsubara_integral_block(eps, zeta, 1e-11)
    assert np.all(np.abs(values / _dense_reference(eps, zeta) - 1.0) <= 1e-11)


class TestIdealMetalIntegral:
    def test_values(self):
        assert ideal_metal_integral(0.0) == pytest.approx(4.0, rel=1e-15)
        assert ideal_metal_integral(1.0) == pytest.approx(10.0 / math.e, rel=1e-15)

    def test_monotone_decay(self):
        grid = np.linspace(0.0, 60.0, 200)
        values = ideal_metal_integral(grid)
        assert np.all(np.diff(values) < 0.0)
        assert values[-1] < 1e-20

    def test_matches_generic_quadrature_at_large_eps(self):
        for zeta in (0.0, 0.4, 2.0, 11.0, 28.0):
            generic = matsubara_integral(1e12, zeta)
            closed = ideal_metal_integral(zeta)
            assert generic == pytest.approx(closed, rel=1e-5)


class TestFreeEnergy:
    def test_zero_polarizability(self):
        req = ComputationRequest(atom=StaticAlpha(0.0), wall=IdealMetal(), a=1e-7, T=300.0)
        res = free_energy(req)
        assert res.free_energy == 0.0
        assert res.warnings

    def test_geometric_series_oracle(self):
        tight = NumericalTolerances(series_rel_tol=1e-12)
        for a, T in ((3e-9, 300.0), (5e-8, 300.0), (1e-6, 300.0), (1e-6, 30.0)):
            req = ComputationRequest(atom=StaticAlpha(ALPHA0), wall=IdealMetal(),
                                     a=a, T=T, tol=tight)
            res = free_energy(req)
            assert res.free_energy == pytest.approx(
                ideal_static_closed_form(ALPHA0, a, T), rel=1e-9
            )

    def test_bookkeeping_consistency(self, helium_like_atom):
        req = ComputationRequest(atom=helium_like_atom, wall=Plasma(1.37e16),
                                 a=5e-8, T=300.0)
        res = free_energy(req)
        assert res.free_energy == pytest.approx(
            res.classical_term + res.thermal_term, rel=1e-12
        )
        assert res.free_energy < 0.0
        assert res.n_terms_used > 0

    def test_negative_for_all_walls(self, helium_like_atom):
        walls = [IdealMetal(), Plasma(1.37e16), StaticPermittivity(3.84)]
        for wall in walls:
            for a in (5e-9, 1e-7, 2e-6):
                req = ComputationRequest(atom=helium_like_atom, wall=wall, a=a, T=300.0)
                assert free_energy(req).free_energy < 0.0

    def test_decreasing_in_separation(self, helium_like_atom):
        grid = np.geomspace(3e-9, 1e-5, 24)
        magnitudes = [
            abs(free_energy(ComputationRequest(atom=helium_like_atom,
                                               wall=Plasma(1.37e16),
                                               a=float(a), T=300.0)).free_energy)
            for a in grid
        ]
        assert np.all(np.diff(magnitudes) < 0.0)

    def test_increasing_in_temperature_classical_regime(self):
        # monotone growth in T holds once zeta_1 >> 1 (classical regime)
        magnitudes = [
            abs(free_energy(ComputationRequest(atom=StaticAlpha(ALPHA0),
                                               wall=IdealMetal(),
                                               a=1e-5, T=T)).free_energy)
            for T in (200.0, 300.0, 450.0, 600.0)
        ]
        assert np.all(np.diff(magnitudes) > 0.0)

    def test_epsilon_monotonicity(self, helium_like_atom):
        pairs = [
            (Plasma(1.4e16), Plasma(7e15)),
            (StaticPermittivity(5.0), StaticPermittivity(2.0)),
        ]
        for strong, weak in pairs:
            f_strong = free_energy(ComputationRequest(
                atom=helium_like_atom, wall=strong, a=5e-8, T=300.0)).free_energy
            f_weak = free_energy(ComputationRequest(
                atom=helium_like_atom, wall=weak, a=5e-8, T=300.0)).free_energy
            assert abs(f_strong) >= abs(f_weak)

    def test_soft_window_warning(self):
        req = ComputationRequest(atom=StaticAlpha(ALPHA0), wall=IdealMetal(),
                                 a=2e-9, T=300.0)
        assert any("trusted window" in w for w in free_energy(req).warnings)

    def test_ninham_parsegian_wall(self, helium_like_atom):
        from atomwall import NinhamParsegian
        wall = NinhamParsegian(((1.93, ev_to_angular(0.13)), (0.91, ev_to_angular(12.5))))
        res = free_energy(ComputationRequest(atom=helium_like_atom, wall=wall,
                                             a=5e-8, T=300.0))
        assert res.free_energy < 0.0
        # bounded by the static wall with the same eps(0)
        static_res = free_energy(ComputationRequest(
            atom=helium_like_atom, wall=StaticPermittivity(1.0 + 1.93 + 0.91),
            a=5e-8, T=300.0))
        assert abs(res.free_energy) <= abs(static_res.free_energy)

    def test_tabulated_alpha_tail_warning(self):
        from atomwall import OscillatorSet, TabulatedAlpha, alpha_iw
        source = OscillatorSet((0.9,), (4e15,))
        xi = np.concatenate(([0.0], np.geomspace(1e13, 1e15, 30)))
        atom = TabulatedAlpha(xi, alpha_iw(source, xi))
        res = free_energy(ComputationRequest(atom=atom, wall=IdealMetal(),
                                             a=1e-7, T=300.0))
        # the sum reaches far beyond the table's last row at 1e15 rad/s
        assert any("extrapolated" in w for w in res.warnings)
        assert res.free_energy < 0.0

    def test_tabulated_alpha_no_tail_warning_inside_table(self):
        from atomwall import OscillatorSet, TabulatedAlpha, alpha_iw
        source = OscillatorSet((0.5935,), (ev_to_angular(1.18),))
        xi = np.concatenate(([0.0], ev_to_angular(np.geomspace(1e-3, 1.0, 40))))
        atom = TabulatedAlpha(xi, alpha_iw(source, xi))
        res = free_energy(ComputationRequest(atom=atom, wall=Plasma(ev_to_angular(9.0)),
                                             a=1e-5, T=300.0))
        # 2 terms reach 0.325 eV, below the table's last row at 1 eV
        assert res.n_terms_used == 2
        assert not any("extrapolated" in w for w in res.warnings)

    @pytest.mark.parametrize("a,top_eV,warns", [
        (1e-5, 0.32, True), (1e-5, 0.33, False),   # 2 plain terms read up to 0.325 eV
        (3e-9, 50.0, True),      # the tail above the table reads up to zeta = 28, 0.92 keV
        (3e-9, 3000.0, False),   # a plain sum to zeta = 28 stays below this table's end
        # plain sums with a middle: its integer alpha reads run to the last term, l = 322
        # above the table's end (top = 310) at 53 nm and l = 305 below it at 56 nm, while
        # the rows that read alpha stop at the head's l = 11
        (53e-9, 50.0, True), (56e-9, 50.0, False),
    ])
    def test_tabulated_alpha_warns_iff_the_sum_reads_above_table(self, monkeypatch, a,
                                                                 top_eV, warns):
        source = OscillatorSet((0.5935,), (ev_to_angular(1.18),))
        xi = np.concatenate(([0.0], ev_to_angular(np.geomspace(1e-3, top_eV, 40))))
        atom = TabulatedAlpha(xi, alpha_iw(source, xi))
        read = []

        def recording(model, x):
            read.append(np.max(x))
            return alpha_iw(model, x)

        monkeypatch.setattr(lifshitz, "alpha_iw", recording)
        res = free_energy(ComputationRequest(atom=atom, wall=Plasma(ev_to_angular(9.0)),
                                             a=a, T=300.0))
        assert (max(read) > xi[-1]) == warns
        assert any("extrapolated" in w for w in res.warnings) == warns

    def test_max_terms_exhaustion(self):
        tol = NumericalTolerances(max_terms=5)
        req = ComputationRequest(atom=StaticAlpha(ALPHA0), wall=IdealMetal(),
                                 a=1e-8, T=300.0, tol=tol)
        with pytest.raises(ConvergenceError):
            free_energy(req)

    def test_tolerances_validation(self):
        with pytest.raises(DomainError):
            NumericalTolerances(series_rel_tol=1e-15)
        with pytest.raises(DomainError):
            NumericalTolerances(max_terms=0)

    def test_quad_rel_tol_floor_is_what_the_quadrature_delivers(self, helium_like_atom):
        # the floor is the tightest quad_rel_tol the dense reference is checked
        # to (test_dense_reference_matches_scipy_quad holds it to a tenth)
        with pytest.raises(DomainError):
            NumericalTolerances(quad_rel_tol=1e-14)
        tol = NumericalTolerances(quad_rel_tol=1e-13)
        # at 1 nm the sum reads eps - 1 down to 3e-10, 5e-7 and 1e-5 on these walls
        # (zeta = 28), and a tabulated wall's grid down to 7e-11, 1e-7 and 2e-6 (zeta = 60)
        for omega_p_eV in (0.05, 2.0, 9.0):
            wall = Plasma(ev_to_angular(omega_p_eV))
            res = free_energy(ComputationRequest(atom=helium_like_atom, wall=wall,
                                                 a=1e-9, T=300.0, tol=tol))
            assert res.free_energy < 0.0
            assert matsubara_integral(eps_iw(wall, 60.0 * C_LIGHT / 2e-9), 60.0, 1e-13) > 0.0

    @pytest.mark.parametrize("omega_p_eV,quad_rel_tol", [(0.2, 1e-9), (2.0, 1e-11)])
    def test_weak_plasma_wall_at_1nm(self, helium_like_atom, omega_p_eV, quad_rel_tol):
        # eps - 1 falls to 5e-9 (0.2 eV) and 5e-7 (2 eV) at zeta = 28
        def f(quad_rel_tol):
            tol = NumericalTolerances(quad_rel_tol=quad_rel_tol)
            return free_energy(ComputationRequest(atom=helium_like_atom,
                                                  wall=Plasma(ev_to_angular(omega_p_eV)),
                                                  a=1e-9, T=300.0, tol=tol)).free_energy
        assert f(quad_rel_tol) == pytest.approx(f(1e-13), rel=quad_rel_tol, abs=0.0)

    def test_loosest_series_rel_tol_reads_no_term_below_one(self, helium_like_atom):
        # series_rel_tol 0.5 asks for L = 1 by the seventh root; the floor keeps
        # the stencil's L - 3/2 at a Matsubara term, where a metal's eps is finite
        tol = NumericalTolerances(series_rel_tol=0.5)
        _, l, *_ = _plan(helium_like_atom, 300.0, tol, np.array([3e-9]))
        assert l.min() >= 1.0
        res = free_energy(ComputationRequest(atom=helium_like_atom, wall=Plasma(1.37e16),
                                             a=3e-9, T=300.0, tol=tol))
        assert np.isfinite(res.free_energy)

    def test_hard_window_rejection(self):
        with pytest.raises(DomainError):
            ComputationRequest(atom=StaticAlpha(ALPHA0), wall=IdealMetal(),
                               a=5e-10, T=300.0)
        with pytest.raises(DomainError):
            ComputationRequest(atom=StaticAlpha(ALPHA0), wall=IdealMetal(),
                               a=1e-7, T=-1.0)

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_non_finite_temperature_rejected(self, T):
        with pytest.raises(DomainError):
            ComputationRequest(atom=StaticAlpha(ALPHA0), wall=IdealMetal(), a=1e-7, T=T)


class TestCasimirPolderEnergy:
    def test_zero_alpha(self):
        assert casimir_polder_energy(0.0, 1e-9) == 0.0

    def test_quartic_scaling(self):
        e1 = casimir_polder_energy(ALPHA0, 1e-8)
        e2 = casimir_polder_energy(ALPHA0, 2e-8)
        assert e2 == pytest.approx(e1 / 16.0, rel=1e-15)

    def test_reference_value(self):
        # 1 atomic unit of polarizability at 1 nm
        value = casimir_polder_energy(au_volume_to_si(1.0), 1e-9)
        assert value == pytest.approx(-5.59e-22, rel=1e-3)


class TestNormalizedFreeEnergy:
    def test_zero_temperature_limit(self):
        req = ComputationRequest(atom=StaticAlpha(ALPHA0), wall=IdealMetal(),
                                 a=1e-6, T=1.0)
        assert normalized_free_energy(req) == pytest.approx(1.0, abs=0.01)

    def test_determinism(self, helium_like_atom):
        req = ComputationRequest(atom=helium_like_atom, wall=Plasma(1.37e16),
                                 a=7e-8, T=300.0)
        assert normalized_free_energy(req) == normalized_free_energy(req)

    def test_large_separation_slope(self):
        # thermal 1/a^3 against zero-point 1/a^4: ratio grows linearly in a
        grid = np.geomspace(5e-6, 1e-5, 8)
        ratios = [
            normalized_free_energy(ComputationRequest(
                atom=StaticAlpha(ALPHA0), wall=IdealMetal(), a=float(a), T=300.0))
            for a in grid
        ]
        slope = np.polyfit(np.log(grid), np.log(ratios), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_rejects_zero_alpha(self):
        req = ComputationRequest(atom=StaticAlpha(0.0), wall=IdealMetal(),
                                 a=1e-7, T=300.0)
        with pytest.raises(DomainError):
            normalized_free_energy(req)


class TestCorrectionFactor:
    def test_identity(self, helium_like_atom):
        req = ComputationRequest(atom=helium_like_atom, wall=Plasma(1.37e16),
                                 a=5e-8, T=300.0)
        assert correction_factor(req, req) == pytest.approx(1.0, rel=1e-12)

    def test_mismatched_requests(self, helium_like_atom):
        ref = ComputationRequest(atom=helium_like_atom, wall=Plasma(1.37e16),
                                 a=5e-8, T=300.0)
        variant = ComputationRequest(atom=helium_like_atom, wall=IdealMetal(),
                                     a=6e-8, T=300.0)
        with pytest.raises(UsageError):
            correction_factor(ref, variant)


def _series_tol_changes(atom, wall, separations, T=300.0):
    """|F(series_rel_tol 1e-9) - F(1e-13)| / |F(1e-13)| per separation."""
    def batch(series_rel_tol):
        tol = NumericalTolerances(series_rel_tol=series_rel_tol)
        return np.array([r.free_energy for r in free_energy_batch(
            [ComputationRequest(atom=atom, wall=wall, a=a, T=T, tol=tol) for a in separations])])
    loose, tight = batch(1e-9), batch(1e-13)
    return np.abs(loose - tight) / np.abs(tight)


class TestSeriesTolerance:
    """A result at series_rel_tol 1e-9 against one at 1e-13."""

    @pytest.mark.parametrize("wall", [
        Plasma(ev_to_angular(9.0)),
        NinhamParsegian(((1.93, ev_to_angular(0.13)), (0.91, ev_to_angular(12.5)))),
        Plasma(ev_to_angular(0.05)),
    ], ids=["plasma", "ninham_parsegian", "weak_plasma"])
    def test_series_rel_tol_holds_at_3nm(self, wall, helium_like_atom):
        assert _series_tol_changes(helium_like_atom, wall, [3e-9])[0] <= 1e-9

    def test_series_rel_tol_holds_on_plasma_static(self):
        separations = [float(a) for a in np.geomspace(3e-9, 1e-5, 40)]
        changes = _series_tol_changes(StaticAlpha(ALPHA0), Plasma(ev_to_angular(9.0)),
                                      separations)
        assert changes.max() <= 1e-9

    def test_series_rel_tol_holds_on_tabulated_wall(self, drude_table):
        separations = [float(a) for a in np.geomspace(3e-9, 1e-5, 40)]
        changes = _series_tol_changes(StaticAlpha(ALPHA0), TabulatedKK(drude_table, METAL),
                                      separations)
        assert changes.max() <= 1e-9


_REF_WALLS = {
    "plasma": Plasma(ev_to_angular(9.0)),
    "ninham_parsegian": NinhamParsegian(((1.93, ev_to_angular(0.13)),
                                         (0.91, ev_to_angular(12.5)))),
    "ideal_metal": IdealMetal(),
    "drude_table": TabulatedKK(make_drude_table(), METAL),
    "weak_plasma": Plasma(ev_to_angular(0.05)),
    # f0 = 0.005: the remainder past the cutoff is compared with a small |F|
    "dilute_static": StaticPermittivity(1.01),
}
_OSCILLATOR = OscillatorSet((0.5935,), (ev_to_angular(1.18),))


def _alpha_table(rows, top_eV, digits=None):
    """_OSCILLATOR sampled at xi = 0 and rows - 1 log-spaced xi up to top_eV, optionally rounded."""
    xi = ev_to_angular(np.concatenate(([0.0], np.geomspace(1e-3, top_eV, rows - 1))))
    alpha = alpha_iw(_OSCILLATOR, xi)
    if digits is not None:   # rounding is monotone, so the rows stay non-increasing
        alpha = np.array([float(f"{v:.{digits}g}") for v in alpha])
    return TabulatedAlpha(xi, alpha)


_REF_ATOMS = {"oscillator": _OSCILLATOR,
              "tabulated": _alpha_table(120, 50.0),
              "tabulated_40_rounded": _alpha_table(40, 50.0, digits=4),
              "tabulated_40_to_3keV": _alpha_table(40, 3000.0),
              "static": StaticAlpha(ALPHA0)}
_REF_SEPARATIONS = (1e-9, 3e-9, 3e-8, 1e-6, 1e-5)
_REF_MAX_TERMS = 400_000   # longer plain sums (1 and 3 nm at 4 K) are left out


@lru_cache(maxsize=None)
def _plain_sum_integrals(wall_name, a, T):
    """(l, per-frequency integral at quad_rel_tol 1e-11) of each term up to zeta_l = 60."""
    wall = _REF_WALLS[wall_name]
    tau = matsubara_zeta(1, a, T)
    ls = np.arange(1, math.ceil(60.0 / tau) + 1)
    if isinstance(wall, IdealMetal):
        return ls, ideal_metal_integral(tau * ls)
    xi1, xi_top = _sum_grid_span(T)
    if isinstance(wall, TabulatedKK):
        eps = eps_grid(wall, xi1, xi_top)(xi1 * ls)
    else:
        eps = eps_iw(wall, xi1 * ls)
    return ls, _matsubara_integral_block(eps, tau * ls, 1e-11)[0]


@lru_cache(maxsize=None)
def _plain_sum_reference(wall_name, atom_name, a, T):
    """F from every term up to zeta_l = 60, shared by every series_rel_tol."""
    wall, atom = _REF_WALLS[wall_name], _REF_ATOMS[atom_name]
    ls, integrals = _plain_sum_integrals(wall_name, a, T)
    bracket = (2.0 * alpha_iw(atom, 0.0) * f0(wall)
               + math.fsum(alpha_iw(atom, _sum_grid_span(T)[0] * ls) * integrals))
    return -CODATA.k_B * T / (8.0 * a ** 3) * bracket


@pytest.mark.parametrize("degree", range(7))
def test_stencil_is_the_euler_maclaurin_end_correction(degree):
    # f(L)/2 - f'(L)/12 + f'''(L)/720 - f^(5)(L)/30240 of f(l) = (l - L)^degree
    expected = {0: 0.5, 1: -1.0 / 12.0, 3: 6.0 / 720.0, 5: -120.0 / 30240.0}.get(degree, 0.0)
    got = lifshitz._STENCIL_WEIGHTS @ lifshitz._STENCIL ** degree
    assert got == pytest.approx(expected, rel=0.0, abs=1e-15)


class TestPlainSumReference:
    """The sum against every term up to zeta_l = 60, at the same quad_rel_tol."""

    def test_series_rel_tol_floor(self):
        # at 1e-14 the planned sum misses a plain sum by 6e-14 of it, on rounding
        with pytest.raises(DomainError):
            NumericalTolerances(series_rel_tol=1e-14)

    def test_long_head_meets_the_floor(self):
        # the tabulated atom at 4 K and 100 nm reads alpha at some 23 000 terms,
        # summed with the interpolated per-frequency integrals of the middle
        reference = _plain_sum_reference("ideal_metal", "tabulated", 1e-7, 4.0)
        tol = NumericalTolerances(series_rel_tol=1e-13, quad_rel_tol=1e-11)
        res = free_energy(ComputationRequest(atom=_REF_ATOMS["tabulated"], wall=IdealMetal(),
                                             a=1e-7, T=4.0, tol=tol))
        assert abs(res.free_energy / reference - 1.0) <= 1e-13

    def test_tabulated_atom_plans_few_evaluations_at_4K(self):
        # the terms between the head and the tail above the table read alpha one
        # by one but integrate only the middle's interpolation nodes
        res = free_energy(ComputationRequest(atom=_REF_ATOMS["tabulated"],
                                             wall=_REF_WALLS["plasma"], a=3e-8, T=4.0))
        assert res.n_terms_used <= 150

    def test_middle_panels_share_their_edge_rows(self):
        # at 4 K and 1 um the middle runs from 12 to 1 278 on two panels: 45 nodes, not 46
        _, l, _, _, middle, _ = _plan(_REF_ATOMS["tabulated"], 4.0, NumericalTolerances(),
                                      np.array([1e-6]))
        assert l.size == np.unique(l).size == 11 + 45
        assert np.count_nonzero(middle) == 45

    @pytest.mark.parametrize("atom_name,a,T,rows", [
        ("oscillator", 3e-9, 300.0, 11 + 6 + 2 * 16),   # the head's last term at l = 11
        ("tabulated", 3e-8, 4.0, 11 + 67 + 6 + 16),     # the middle's last node at top - 1
    ])
    def test_stencil_shares_the_row_at_top_minus_one(self, atom_name, a, T, rows):
        # L - 1 head terms, the middle's nodes, 6 stencil points and 16 per tail panel
        _, l, *_ = _plan(_REF_ATOMS[atom_name], T, NumericalTolerances(), np.array([a]))
        assert l.size == np.unique(l).size == rows

    def test_middle_reads_alpha_once_per_row(self, monkeypatch):
        # alpha is read only where a weight multiplies it: the middle nodes' alpha is in
        # their weights, from the integer reads of _plan, so a non-integer l is read once
        # and only at a stencil point or a tail node
        read = []

        def recording(model, x):
            read.append(np.array(x, dtype=float).ravel())
            return alpha_iw(model, x)

        monkeypatch.setattr(lifshitz, "alpha_iw", recording)
        free_energy(ComputationRequest(atom=_REF_ATOMS["tabulated"], wall=_REF_WALLS["plasma"],
                                       a=3e-8, T=4.0))
        xi = np.concatenate(read)
        l = xi / _sum_grid_span(4.0)[0]
        fractional, counts = np.unique(xi[np.abs(l - np.round(l)) > 1e-6], return_counts=True)
        # 4 half-integer stencil points and 16 tail nodes; none of the 67 middle nodes
        assert fractional.size == 4 + 16
        assert counts.max() == 1

    @pytest.mark.parametrize("series_rel_tol", [1e-3, 1e-6, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13])
    @pytest.mark.parametrize("T", [4.0, 30.0, 300.0, 1000.0, 3000.0])
    @pytest.mark.parametrize("atom_name", list(_REF_ATOMS))
    @pytest.mark.parametrize("wall_name", list(_REF_WALLS))
    def test_within_series_rel_tol(self, wall_name, atom_name, T, series_rel_tol):
        wall, atom = _REF_WALLS[wall_name], _REF_ATOMS[atom_name]
        for a in _REF_SEPARATIONS:
            if 60.0 / matsubara_zeta(1, a, T) > _REF_MAX_TERMS:
                continue
            reference = _plain_sum_reference(wall_name, atom_name, a, T)
            tol = NumericalTolerances(series_rel_tol=series_rel_tol, quad_rel_tol=1e-11)
            res = free_energy(ComputationRequest(atom=atom, wall=wall, a=a, T=T, tol=tol))
            assert abs(res.free_energy / reference - 1.0) <= series_rel_tol, a


class TestTabulatedAgainstItsOscillator:
    """A tabulated atom against the oscillator its rows sample.

    ``TestPlainSumReference`` sums with the tabulated alpha itself, so it cannot
    see the interpolation error between rows.  Each bound sits just above the
    error of PCHIP in xi, largest near the tables' 50 eV end; a more accurate
    interpolant can tighten them.
    """

    @pytest.mark.parametrize("atom_name, bound", [("tabulated", 9.5e-4),
                                                  ("tabulated_40_rounded", 3.9e-2)])
    def test_alpha_between_rows(self, atom_name, bound):
        xi = ev_to_angular(np.linspace(0.0, 50.0, 100_001))
        ratio = alpha_iw(_REF_ATOMS[atom_name], xi) / alpha_iw(_OSCILLATOR, xi)
        assert np.max(np.abs(ratio - 1.0)) <= bound

    @pytest.mark.parametrize("T", [30.0, 300.0])
    @pytest.mark.parametrize("atom_name, bound", [("tabulated", 3.3e-6),
                                                  ("tabulated_40_rounded", 3.1e-4)])
    def test_free_energy_on_a_plasma(self, atom_name, bound, T):
        # the largest shift is at 3 nm, where the sum reads alpha up to the table's end
        wall, separations = _REF_WALLS["plasma"], np.geomspace(3e-9, 3e-6, 13)
        tabulated, oscillator = (free_energy_batch([ComputationRequest(atom, wall, a, T)
                                                    for a in separations])
                                 for atom in (_REF_ATOMS[atom_name], _OSCILLATOR))
        for a, f, g in zip(separations, tabulated, oscillator):
            assert abs(f.free_energy / g.free_energy - 1.0) <= bound, a


class TestClosedFormLongTail:
    """Ideal metal and static atom against the geometric series, where the tail is long.

    At low temperature and short separation the Euler-Maclaurin tail spans up
    to ln(zeta_end/(zeta_1 top)) = 14 in ln l, beyond the separations and
    temperatures of ``TestPlainSumReference`` (``_REF_MAX_TERMS``).
    """

    @pytest.mark.parametrize("series_rel_tol", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12,
                                                1e-13])
    @pytest.mark.parametrize("T", [0.5, 1.0, 2.0, 4.0, 10.0])
    def test_within_series_rel_tol(self, T, series_rel_tol):
        separations = (1e-9, 1.5e-9, 2e-9, 3e-9, 5e-9, 7e-9, 1e-8)
        tol = NumericalTolerances(series_rel_tol=series_rel_tol)
        results = free_energy_batch([ComputationRequest(atom=StaticAlpha(ALPHA0),
                                                        wall=IdealMetal(), a=a, T=T, tol=tol)
                                     for a in separations])
        errors = [abs(r.free_energy / ideal_static_closed_form(ALPHA0, a, T) - 1.0)
                  for a, r in zip(separations, results)]
        assert max(errors) <= series_rel_tol, dict(zip(separations, errors))

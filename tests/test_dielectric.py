import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomwall import (
    ConfigError,
    ConvergenceError,
    DomainError,
    DrudeLowFreq,
    IdealMetal,
    KKSettings,
    NinhamParsegian,
    OpticalTable,
    Plasma,
    StaticPermittivity,
    TabulatedKK,
    ValidationError,
    eps_imag_part,
    eps_iw,
    ev_to_angular,
    f0,
    kk_transform,
)
from atomwall import dielectric
from atomwall.dielectric import DIELECTRIC, METAL, eps_grid
from atomwall.lifshitz import _sum_grid_span

from conftest import (
    NU,
    WP,
    drude_eps_analytic,
    drude_nk,
    lorentz_eps_analytic,
    make_drude_table,
    make_lorentz_table,
)


class TestPlasma:
    def test_at_plasma_frequency(self):
        assert eps_iw(Plasma(WP), WP) == pytest.approx(2.0, rel=1e-14)

    def test_plasma_identity(self):
        # xi * sqrt(eps - 1) recovers omega_p
        model = Plasma(WP)
        for xi in np.geomspace(1e12, 1e18, 25):
            eps = eps_iw(model, float(xi))
            assert xi * np.sqrt(eps - 1.0) == pytest.approx(WP, rel=1e-12)

    def test_metal_kind_and_zero_rejection(self):
        assert Plasma(WP).kind == METAL
        with pytest.raises(DomainError):
            eps_iw(Plasma(WP), 0.0)

    def test_f0_is_unity(self):
        assert f0(Plasma(WP)) == 1.0


class TestStaticPermittivity:
    def test_constant_at_all_frequencies(self):
        model = StaticPermittivity(3.84)
        for xi in (0.0, 1e13, 1e16, 1e19):
            assert eps_iw(model, xi) == 3.84

    def test_f0(self):
        assert f0(StaticPermittivity(3.84)) == pytest.approx(0.58678, abs=1e-5)
        assert f0(StaticPermittivity(1.0)) == 0.0

    def test_kind(self):
        assert StaticPermittivity(3.84).kind == DIELECTRIC

    def test_rejects_below_unity(self):
        with pytest.raises(DomainError):
            StaticPermittivity(0.9)


class TestNinhamParsegian:
    def test_single_term_closed_form(self):
        c1, w1 = 2.0, 1e16
        model = NinhamParsegian(((c1, w1),))
        for xi in np.geomspace(1e13, 1e18, 40):
            expected = 1.0 + c1 / (1.0 + (xi / w1) ** 2)
            assert eps_iw(model, float(xi)) == pytest.approx(expected, rel=1e-15)

    def test_f0_from_term_sum(self):
        model = NinhamParsegian(((1.5, 1e15), (0.5, 2e16)))
        assert f0(model) == pytest.approx(2.0 / 4.0, rel=1e-14)

    def test_rejects_bad_terms(self):
        with pytest.raises(DomainError):
            NinhamParsegian(((0.0, 1e15),))
        with pytest.raises(DomainError):
            NinhamParsegian(())


@pytest.mark.parametrize("build", [
    lambda: Plasma(math.nan),
    lambda: Plasma(math.inf),
    lambda: StaticPermittivity(math.nan),
    lambda: StaticPermittivity(math.inf),
    lambda: NinhamParsegian(((math.nan, 1e15),)),
    lambda: NinhamParsegian(((2.0, math.inf),)),
    lambda: DrudeLowFreq(math.nan, NU),
    lambda: DrudeLowFreq(WP, math.inf),
    lambda: OpticalTable(np.geomspace(1e14, 1e17, 10), np.full(10, 1.2), np.full(10, 0.3),
                         high_exponent=math.nan),
    lambda: OpticalTable(np.geomspace(1e14, 1e17, 10), np.full(10, 1.2), np.full(10, 0.3),
                         high_exponent=math.inf),
], ids=["plasma_nan", "plasma_inf", "static_nan", "static_inf", "np_nan_strength",
        "np_inf_frequency", "drude_nan_omega_p", "drude_inf_nu", "table_nan_exponent",
        "table_inf_exponent"])
def test_non_finite_parameters_are_rejected(build):
    # the range guards alone let NaN and infinity through
    with pytest.raises(DomainError):
        build()


class TestIdealMetal:
    def test_f0(self):
        assert f0(IdealMetal()) == 1.0

    def test_eps_iw_is_rejected(self):
        with pytest.raises(DomainError):
            eps_iw(IdealMetal(), 1e15)


class TestOpticalTableValidation:
    def _arrays(self, m=10):
        omega = np.geomspace(1e14, 1e17, m)
        return omega, np.full(m, 1.2), np.full(m, 0.3)

    def test_too_few_rows(self):
        omega, n, k = self._arrays(5)
        with pytest.raises(ValidationError):
            OpticalTable(omega, n, k)

    def test_non_monotone(self):
        omega, n, k = self._arrays()
        omega[4] = omega[3]
        with pytest.raises(ValidationError):
            OpticalTable(omega, n, k)

    def test_negative_k(self):
        omega, n, k = self._arrays()
        k[2] = -0.1
        with pytest.raises(ValidationError):
            OpticalTable(omega, n, k)


class TestEpsImagPart:
    def test_exact_at_grid_node(self, drude_table):
        i = 217
        omega_i = float(drude_table.omega[i])
        expected = 2.0 * drude_table.n[i] * drude_table.k[i]
        assert eps_imag_part(drude_table, omega_i) == expected

    def test_drude_value_at_nu(self, drude_table):
        # eps''(nu) = wp^2 nu / (nu (nu^2 + nu^2)) = wp^2/(2 nu^2)
        expected = WP ** 2 / (2.0 * NU ** 2)
        assert eps_imag_part(drude_table, NU) == pytest.approx(expected, rel=1e-3)

    def test_zero_extinction_table(self):
        omega = np.geomspace(1e14, 1e17, 12)
        table = OpticalTable(omega, np.full(12, 1.5), np.zeros(12))
        grid = np.geomspace(2e14, 5e16, 30)
        assert np.all(eps_imag_part(table, grid) == 0.0)

    def test_rejects_nonpositive_frequency(self, drude_table):
        with pytest.raises(DomainError):
            eps_imag_part(drude_table, 0.0)

    def test_below_range_uses_drude(self, drude_table):
        omega = drude_table.omega_min / 7.0
        expected = WP ** 2 * NU / (omega * (omega ** 2 + NU ** 2))
        assert eps_imag_part(drude_table, omega) == pytest.approx(expected, rel=1e-12)

    def test_below_range_metal_like_without_drude_errors(self):
        omega = np.geomspace(1e13, 1e17, 40)
        n, k = drude_nk(omega)
        table = OpticalTable(omega, n, k)  # no low_ext
        with pytest.raises(ConfigError):
            eps_imag_part(table, omega[0] / 10.0)

    def test_above_range_power_tail(self, drude_table):
        w_max = drude_table.omega_max
        e_last = 2.0 * drude_table.n[-1] * drude_table.k[-1]
        assert eps_imag_part(drude_table, 2.0 * w_max) == pytest.approx(
            e_last / 8.0, rel=1e-12
        )
        # continuous at the boundary
        assert eps_imag_part(drude_table, w_max) == pytest.approx(e_last, rel=1e-12)


# module-level tables for the hypothesis test, which cannot take fixtures
_DRUDE = make_drude_table()
_LORENTZ = make_lorentz_table()


class TestKKTransform:
    def test_drude_oracle(self, drude_table):
        wall = TabulatedKK(drude_table, METAL)
        for xi in np.geomspace(1e13, 1e17, 25):
            got = eps_iw(wall, float(xi))
            assert got == pytest.approx(drude_eps_analytic(xi), rel=1e-3)

    def test_spec_value_at_nu(self, drude_table):
        wall = TabulatedKK(drude_table, METAL)
        assert eps_iw(wall, NU) == pytest.approx(1.0 + WP ** 2 / (2.0 * NU ** 2), rel=1e-3)

    def test_lorentz_dielectric_oracle(self, lorentz_table):
        wall = TabulatedKK(lorentz_table, DIELECTRIC)
        for xi in (0.0, 1e15, 1e16, 1e17):
            assert eps_iw(wall, xi) == pytest.approx(lorentz_eps_analytic(xi), rel=2e-3)

    def test_f0_dielectric_from_zero_transform(self, lorentz_table):
        wall = TabulatedKK(lorentz_table, DIELECTRIC)
        eps0 = lorentz_eps_analytic(0.0)
        assert f0(wall) == pytest.approx((eps0 - 1.0) / (eps0 + 1.0), rel=2e-3)

    def test_metal_rejects_zero_frequency(self, drude_table):
        wall = TabulatedKK(drude_table, METAL)
        with pytest.raises(DomainError):
            eps_iw(wall, 0.0)

    def test_metal_requires_drude_completion(self):
        omega = np.geomspace(1e13, 1e17, 40)
        n, k = drude_nk(omega)
        table = OpticalTable(omega, n, k)
        with pytest.raises(ConfigError):
            TabulatedKK(table, METAL)

    def test_dielectric_rejects_metal_like_low_end(self):
        omega = np.geomspace(1e13, 1e17, 40)
        n, k = drude_nk(omega)
        table = OpticalTable(omega, n, k)
        with pytest.raises(ConfigError):
            TabulatedKK(table, DIELECTRIC)

    def test_precomputed_grid_matches_direct(self, drude_table):
        wall = TabulatedKK(drude_table, METAL)
        grid = eps_grid(wall, 1e13, 1e17)
        for xi in np.geomspace(2e13, 8e16, 17):
            a = eps_iw(wall, float(xi))
            b = float(grid(xi))
            assert b == pytest.approx(a, rel=1e-4)

    @settings(max_examples=40, deadline=None)
    @given(
        metal=st.booleans(),
        # log10 of xi in rad/s, below, across and above both tables
        exponents=st.lists(st.floats(10.0, 19.0), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_array_transform_equals_one_call_per_frequency(self, metal, exponents, data):
        table = _DRUDE if metal else _LORENTZ
        xs = [10.0 ** e for e in exponents]
        xs += data.draw(st.lists(st.sampled_from(xs), max_size=3))  # duplicates
        if not metal:
            xs.append(0.0)
        xs = data.draw(st.permutations(xs))
        got = kk_transform(table, np.array(xs))
        assert [float(v).hex() for v in got] == [kk_transform(table, x).hex() for x in xs]

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-9, 1e-12])
    def test_low_completion_converges_far_below_table(self, lorentz_table, rel_tol):
        # xi down to 1e-10 of the first row; one panel over [0, w_min] failed
        # here with ConvergenceError from 1e10 to 1.6e10 rad/s
        xs = np.concatenate([np.geomspace(1e10, 1.6e10, 7),
                             np.geomspace(1e3, 0.99 * lorentz_table.omega_min, 25)])
        assert np.all(np.isfinite(kk_transform(lorentz_table, xs, rel_tol)))

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    def test_low_completion_matches_closed_form(self, rel_tol):
        # eps'' = 2 n k = e0 w / w_min over the whole table, so the power-law
        # completion below it continues the same line; with the w^-3 tail the
        # transform is closed-form
        omega = np.geomspace(1e13, 1e16, 40)
        table = OpticalTable(omega, np.ones_like(omega), omega / 1e16)
        e0, v, big_w = table._low_e0, table.omega_min, table.omega_max
        for xi in np.geomspace(1e3, 3e13, 30):
            below_w = e0 / v * (big_w - xi * np.arctan(big_w / xi))
            r = (xi / big_w) ** 2  # at most 1e-5: the tail's series ends at r^3
            tail = table.high_amplitude / big_w ** 3 * (1 / 3 - r / 5 + r * r / 7 - r ** 3 / 9)
            assert kk_transform(table, float(xi), rel_tol) == pytest.approx(
                below_w + tail, rel=1e-13)

    def test_low_completion_bits_at_and_above_table_start(self, lorentz_table):
        # at, just above and far above the first row of the table
        got = kk_transform(lorentz_table, np.array([1e13, 3e14, 1e17]), 1e-9)
        assert [float(v).hex() for v in got] == [
            "0x1.1d68dfec6149bp+2", "0x1.1b4adeb2fd7acp+2", "0x1.4089811bf90d4p-3"]

    def test_scalar_transform_is_a_float(self, drude_table):
        assert type(kk_transform(drude_table, 3e15)) is float
        assert kk_transform(drude_table, np.array([3e15])).shape == (1,)

    def test_eps_iw_does_not_depend_on_earlier_queries(self, drude_table):
        wall = TabulatedKK(drude_table, METAL)
        before = eps_iw(wall, 3e15)
        for xi in np.geomspace(1e14, 1e16, 70):  # more than 64 distinct queries
            eps_iw(wall, float(xi))
        assert eps_iw(wall, 3e15) == before
        # the answer stays close to the analytic oracle
        assert before == pytest.approx(drude_eps_analytic(3e15), rel=1e-3)


def _quad_reference(table, xi):
    """The transform by scipy quad in s = ln w: every table segment, each
    completion out to infinity, split at ln xi where that lies outside the table."""
    from scipy.integrate import quad

    def g(s):
        if abs(s) > 300.0:  # where every completion here has fallen by e^-60 or more
            return 0.0
        w = math.exp(s)
        return eps_imag_part(table, w) * w * w / (w * w + xi * xi)

    rows = np.log(table.omega)
    cuts = sorted({-math.inf, *rows, math.inf}
                  | ({math.log(xi)} if xi > 0.0 and not rows[0] < math.log(xi) < rows[-1]
                     else set()))
    return sum(quad(g, lo, hi, epsabs=0.0, epsrel=2e-14, limit=200)[0]
               for lo, hi in zip(cuts[:-1], cuts[1:]))


def _table_config_drude(high_exponent):
    """The 200-row 9 eV / 0.035 eV Drude table of the tabulated CLI configs."""
    omega = ev_to_angular(np.geomspace(1e-3, 1e4, 200))
    wp, nu = ev_to_angular(9.0), ev_to_angular(0.035)
    n, k = drude_nk(omega, wp, nu)
    return OpticalTable(omega, n, k, low_ext=DrudeLowFreq(wp, nu),
                        high_exponent=high_exponent)


class TestTransformAgainstQuad:
    """Completions that are hard to integrate, against scipy quad in ln w."""

    @pytest.mark.parametrize("p,rel_tol", [(0.5, 1e-6), (1.5, 1e-9)])
    def test_slowly_falling_tail(self, p, rel_tol):
        # a tail falling as w^-0.5 or w^-1.5 reaches the tolerance at every xi
        table = _table_config_drude(p)
        xs = np.geomspace(1e11, 1e20, 300)
        got = kk_transform(table, xs, rel_tol)
        for i in (0, 100, 200, 299):
            assert got[i] == pytest.approx(_quad_reference(table, xs[i]), rel=rel_tol, abs=0.0)

    @pytest.mark.parametrize("slope,rel_tol", [(0.2, 1e-11), (0.5, 1e-12)])
    def test_slowly_falling_power_law_below_the_table(self, slope, rel_tol):
        # eps'' ~ w^slope below the table is not smooth at w = 0, only in ln w
        omega = np.geomspace(1e13, 1e16, 40)
        table = OpticalTable(omega, np.full(40, 1.5), 0.1 * (omega / 1e13) ** slope)
        xs = np.geomspace(1e5, 1e13, 30)
        got = kk_transform(table, xs, rel_tol)
        for i in (0, 15, 29):
            assert got[i] == pytest.approx(_quad_reference(table, xs[i]), rel=rel_tol, abs=0.0)

    def test_too_flat_power_law_raises_at_zero_frequency_only(self):
        # at xi = 0, eps'' ~ w^0.03 falls by e^-40 only some 1 300 e-folds
        # below the table, where 1/w overflows; at xi > 0 it falls faster below xi
        omega = np.geomspace(1e13, 1e16, 40)
        table = OpticalTable(omega, np.full(40, 1.5), 0.1 * (omega / 1e13) ** 0.03)
        with pytest.raises(ConfigError):
            kk_transform(table, 0.0)
        for xi in (1e3, 1e10):
            assert kk_transform(table, xi, 1e-12) == pytest.approx(
                _quad_reference(table, xi), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("xi", [NU * (1.0 - 2e-6), NU * (1.0 + 2e-6)])
    def test_drude_completion_at_its_relaxation_rate(self, drude_table, xi):
        # a closed form of the Drude part cancels here, by 8.5e-13 of the whole
        assert kk_transform(drude_table, xi, 1e-13) == pytest.approx(
            _quad_reference(drude_table, xi), rel=1e-13, abs=0.0)

    def test_transparent_below_a_band_edge(self):
        # k = 0 in the first rows: eps'' is zero below the table, with no panels there
        omega = np.geomspace(1e14, 1e17, 60)
        k = np.where(omega > 2e15, 0.4 * (1.0 - 2e15 / omega), 0.0)
        table = OpticalTable(omega, np.full(60, 1.5), k)
        settings = KKSettings(rel_tol=1e-10)
        wall = TabulatedKK(table, DIELECTRIC, settings)
        for xi in (0.0, 1e13, 3e15, 1e17):
            want = 1.0 + (2.0 / math.pi) * _quad_reference(table, xi)
            assert eps_iw(wall, xi) == pytest.approx(want, rel=settings.rel_tol, abs=0.0)
            if xi == 0.0:
                assert f0(wall) == pytest.approx((want - 1.0) / (want + 1.0),
                                                 rel=settings.rel_tol, abs=0.0)

    def test_order_cap_raises_with_diagnostics(self, monkeypatch):
        # the transform starts at order 4; at the cap, orders 8 and 16 still disagree
        # by 1.1e-13 just above this table's end
        monkeypatch.setattr(dielectric, "_KK_CAP", 16)
        omega = np.geomspace(1e13, 1e16, 40)
        table = OpticalTable(omega, np.full(40, 1.5), 0.1 * (omega / 1e13) ** 0.2)
        with pytest.raises(ConvergenceError) as info:
            kk_transform(table, np.geomspace(1e3, 1e20, 40), 1e-13)
        diagnostics = info.value.diagnostics
        assert set(diagnostics) == {"xi", "order", "last", "previous", "panels", "unconverged"}
        assert diagnostics["order"] == 16 and diagnostics["unconverged"] >= 1


# the tables a Matsubara sum reads through eps_grid in the interpolant tests
_SUM_TABLES = {"drude_200": (make_drude_table(200), METAL), "drude_500": (_DRUDE, METAL),
               "lorentz": (_LORENTZ, DIELECTRIC)}


@lru_cache(maxsize=None)
def _sum_span_reference(table_name, T):
    """300 log-spaced probes of the sum's span at T, and eps there at kk.rel_tol 1e-12."""
    table, kind = _SUM_TABLES[table_name]
    probes = np.geomspace(*_sum_grid_span(T), 300)
    return probes, eps_iw(TabulatedKK(table, kind, KKSettings(rel_tol=1e-12)), probes)


class TestSumInterpolant:
    @pytest.mark.parametrize("T", [30.0, 300.0])
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("table_name", list(_SUM_TABLES))
    def test_meets_kk_rel_tol_over_the_sum_span(self, table_name, rel_tol, T):
        table, kind = _SUM_TABLES[table_name]
        probes, reference = _sum_span_reference(table_name, T)
        grid = eps_grid(TabulatedKK(table, kind, KKSettings(rel_tol=rel_tol)),
                        *_sum_grid_span(T))
        assert np.max(np.abs(grid(probes) / reference - 1.0)) <= rel_tol

    def test_degree_cap_raises_with_diagnostics(self, monkeypatch):
        # degree 32 cannot carry 1e-12 over 12 decades
        monkeypatch.setattr(dielectric, "_CHEB_CAP", 32)
        wall = TabulatedKK(_DRUDE, METAL, KKSettings(rel_tol=1e-12))
        with pytest.raises(ConvergenceError) as info:
            eps_grid(wall, 1e7, 1e19)
        assert info.value.diagnostics["degree"] == 32
        assert info.value.diagnostics["estimate"] > 1e-12
        assert info.value.diagnostics["span"] == (1e7, 1e19)


MODELS_FOR_MONOTONICITY = [
    Plasma(WP),
    StaticPermittivity(3.84),
    NinhamParsegian(((1.5, 1e15), (0.8, 2e16))),
]


@pytest.mark.parametrize("model", MODELS_FOR_MONOTONICITY, ids=lambda m: type(m).__name__)
def test_eps_iw_monotone_and_above_unity(model):
    grid = np.geomspace(1e12, 1e19, 60)
    values = eps_iw(model, grid)
    assert np.all(values >= 1.0)
    assert np.all(np.diff(values) <= 0.0)


def test_tabulated_eps_iw_monotone_and_above_unity(drude_table):
    wall = TabulatedKK(drude_table, METAL)
    grid = np.geomspace(1e13, 1e18, 60)
    for values in (eps_iw(wall, grid), eps_grid(wall, 1e13, 1e18)(grid)):
        assert np.all(values >= 1.0)
        assert np.all(np.diff(values) <= 0.0)


def test_f0_dielectrics_in_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(50):
        eps0 = float(rng.uniform(1.0, 50.0))
        value = f0(StaticPermittivity(eps0))
        assert 0.0 <= value < 1.0


def test_kk_settings_validation():
    with pytest.raises(DomainError):
        KKSettings(rel_tol=0.5)
    with pytest.raises(DomainError):
        KKSettings(rel_tol=0.0)


def test_kk_rel_tol_floor_is_what_the_transform_delivers(drude_table):
    # the transform converges down to 1e-15 and stalls on rounding at 1e-16;
    # the floor comes from the sum's interpolant, tested below
    with pytest.raises(DomainError):
        KKSettings(rel_tol=1e-15)
    xi = np.geomspace(1e13, 1e17, 25)
    assert np.all(np.isfinite(kk_transform(drude_table, xi, KKSettings(rel_tol=1e-13).rel_tol)))


@pytest.mark.parametrize("T", [4.0, 30.0, 300.0])
@pytest.mark.parametrize("table_name", list(_SUM_TABLES))
def test_kk_rel_tol_floor_is_what_the_sum_interpolant_builds(table_name, T):
    # once converged, the interpolant's four-coefficient estimate levels off on
    # rounding at up to 4e-14; at 1e-14 the 200-row Drude table at 30 K ends at the cap
    with pytest.raises(DomainError):
        KKSettings(rel_tol=5e-14)
    table, kind = _SUM_TABLES[table_name]
    grid = eps_grid(TabulatedKK(table, kind, KKSettings(rel_tol=1e-13)), *_sum_grid_span(T))
    assert np.all(np.isfinite(grid(np.geomspace(*_sum_grid_span(T), 50))))


def test_transform_is_continuous_in_the_tail_exponent(drude_table):
    # p = 3 takes no path of its own: moving p by 1e-9 moves the tail's share
    # by about 3e-10 of itself, and the whole by about 1e-15 here
    def at(p):
        table = OpticalTable(drude_table.omega, drude_table.n, drude_table.k,
                             low_ext=drude_table.low_ext, high_exponent=p)
        return kk_transform(table, np.array([1e14, 2e16, 1e20]), 1e-12)

    exact = at(3.0)
    for p in (3.0 - 1e-9, 3.0 + 1e-9):
        assert at(p) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_concurrent_queries_match_sequential(drude_table):
    from concurrent.futures import ThreadPoolExecutor

    xis = [float(x) for x in np.geomspace(2e13, 5e16, 48)]
    sequential_wall = TabulatedKK(drude_table, METAL)
    expected = [eps_iw(sequential_wall, xi) for xi in xis]

    threaded_wall = TabulatedKK(drude_table, METAL)
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda xi: eps_iw(threaded_wall, xi), xis))
    assert got == expected

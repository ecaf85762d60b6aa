import math

import numpy as np
import pytest

from atomwall import (
    DomainError,
    OscillatorSet,
    StaticAlpha,
    TabulatedAlpha,
    ValidationError,
    alpha_iw,
    fit_single_oscillator,
    static_alpha,
)
from atomwall.constants import OSCILLATOR_PREFACTOR


def random_oscillator_set(rng):
    count = int(rng.integers(1, 6))
    return OscillatorSet(
        strengths=tuple(rng.uniform(0.05, 2.0, count)),
        frequencies=tuple(rng.uniform(5e14, 5e16, count)),
    )


class TestStaticAlpha:
    def test_constant(self):
        model = StaticAlpha(3e-30)
        for xi in (0.0, 1e14, 1e17):
            assert alpha_iw(model, xi) == 3e-30

    def test_zero_allowed(self):
        assert static_alpha(StaticAlpha(0.0)) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            StaticAlpha(-1e-30)


class TestOscillators:
    def test_half_value_at_resonance(self):
        model = OscillatorSet((0.8,), (2e15,))
        assert alpha_iw(model, 2e15) == pytest.approx(static_alpha(model) / 2.0, rel=1e-12)

    def test_zero_frequency_is_static(self):
        model = OscillatorSet((0.8, 0.4), (2e15, 6e15))
        assert alpha_iw(model, 0.0) == static_alpha(model)

    def test_two_oscillator_hand_value(self):
        # (f=1, w=1.5e16) and (f=0.5, w=3e16) at xi = 1.5e16
        model = OscillatorSet((1.0, 0.5), (1.5e16, 3e16))
        expected = OSCILLATOR_PREFACTOR * (
            1.0 / (1.5e16 ** 2 + 1.5e16 ** 2) + 0.5 / (3e16 ** 2 + 1.5e16 ** 2)
        )
        assert alpha_iw(model, 1.5e16) == pytest.approx(expected, rel=1e-12)

    def test_static_equals_alpha_at_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            model = random_oscillator_set(rng)
            assert static_alpha(model) == alpha_iw(model, 0.0)

    def test_monotone_decreasing_and_bounded(self):
        rng = np.random.default_rng(12)
        grid = np.geomspace(1e13, 1e18, 80)
        for _ in range(25):
            model = random_oscillator_set(rng)
            values = alpha_iw(model, grid)
            assert np.all(values > 0.0)
            assert np.all(np.diff(values) < 0.0)
            assert np.all(values <= static_alpha(model))

    def test_high_frequency_coefficient(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            model = random_oscillator_set(rng)
            c_inf = OSCILLATOR_PREFACTOR * model.strength_sum
            grid = np.geomspace(1e16, 1e20, 40)
            scaled = grid ** 2 * alpha_iw(model, grid)
            assert np.all(scaled <= c_inf * (1.0 + 1e-12))
            assert scaled[-1] == pytest.approx(c_inf, rel=1e-4)

    def test_rejects_negative_xi(self):
        with pytest.raises(DomainError):
            alpha_iw(OscillatorSet((1.0,), (1e15,)), -1.0)

    def test_rejects_invalid_entries(self):
        with pytest.raises(ValidationError):
            OscillatorSet((), ())
        with pytest.raises(ValidationError):
            OscillatorSet((1.0,), (-1e15,))


class TestFitSingleOscillator:
    def test_fixed_point(self):
        model = OscillatorSet((0.7,), (3e15,))
        fit = fit_single_oscillator(model)
        assert fit.n_oscillators == 1
        assert fit.strengths[0] == pytest.approx(0.7, rel=1e-12)
        assert fit.frequencies[0] == pytest.approx(3e15, rel=1e-12)

    def test_degenerate_merge(self):
        model = OscillatorSet((0.4, 0.4), (2e15, 2e15))
        fit = fit_single_oscillator(model)
        assert fit.strengths[0] == pytest.approx(0.8, rel=1e-12)
        assert fit.frequencies[0] == pytest.approx(2e15, rel=1e-12)

    def test_hand_example(self):
        # alpha(0)/prefactor = 1/1e32 + 1/4e32 = 1.25e-32, C_inf/prefactor = 2
        model = OscillatorSet((1.0, 1.0), (1e16, 2e16))
        fit = fit_single_oscillator(model)
        assert fit.frequencies[0] == pytest.approx(math.sqrt(2.0 / 1.25e-32), rel=1e-12)
        assert fit.strengths[0] == pytest.approx(2.0, rel=1e-12)

    def test_preserves_static_value(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            model = random_oscillator_set(rng)
            fit = fit_single_oscillator(model)
            assert static_alpha(fit) == pytest.approx(static_alpha(model), rel=1e-12)

    def test_static_input_unsupported(self):
        with pytest.raises(DomainError):
            fit_single_oscillator(StaticAlpha(1e-30))


class TestTabulatedAlpha:
    def _from_oscillator(self, model, xi_max=1e17, n=60):
        xi = np.concatenate(([0.0], np.geomspace(1e13, xi_max, n - 1)))
        return TabulatedAlpha(xi, alpha_iw(model, xi))

    def test_requires_zero_row(self):
        with pytest.raises(ValidationError):
            TabulatedAlpha(np.array([1e13, 1e14]), np.array([1e-30, 5e-31]))

    def test_interpolation_matches_source(self):
        model = OscillatorSet((0.9,), (4e15,))
        table = self._from_oscillator(model)
        for xi in np.geomspace(2e13, 8e16, 30):
            assert alpha_iw(table, float(xi)) == pytest.approx(
                alpha_iw(model, float(xi)), rel=1e-3
            )

    def test_zero_frequency_is_first_row(self):
        model = OscillatorSet((0.9,), (4e15,))
        table = self._from_oscillator(model)
        assert static_alpha(table) == table.alpha[0]

    def test_above_range_tail_and_flag(self):
        model = OscillatorSet((0.9,), (4e15,))
        table = self._from_oscillator(model, xi_max=1e17)
        last_xi, last_alpha = table.xi[-1], table.alpha[-1]
        got = alpha_iw(table, 4e17)
        assert got == pytest.approx(last_alpha * (last_xi / 4e17) ** 2, rel=1e-12)

    def test_fit_single_oscillator_from_table(self):
        model = OscillatorSet((0.9,), (4e15,))
        table = self._from_oscillator(model, xi_max=1e19)
        fit = fit_single_oscillator(table)
        assert fit.frequencies[0] == pytest.approx(4e15, rel=1e-2)
        assert static_alpha(fit) == pytest.approx(static_alpha(model), rel=1e-9)

    @pytest.mark.parametrize("name", ["xi", "alpha"])
    def test_rows_cannot_be_reassigned(self, name):
        table = self._from_oscillator(OscillatorSet((0.9,), (4e15,)))
        with pytest.raises(AttributeError):
            setattr(table, name, np.zeros(3))

    def test_rejects_increasing_alpha(self):
        xi = np.array([0.0, 1e14, 2e14])
        with pytest.raises(ValidationError):
            TabulatedAlpha(xi, np.array([1e-30, 2e-30, 1e-30]))

    @pytest.mark.parametrize("row", [math.nan, math.inf])
    def test_rejects_non_finite_xi_row(self, row):
        with pytest.raises(ValidationError):
            TabulatedAlpha(np.array([0.0, 1e14, row]), np.array([3e-30, 2e-30, 1e-30]))
        with pytest.raises(ValidationError):
            TabulatedAlpha(np.array([0.0, row, 2e14]), np.array([3e-30, 2e-30, 1e-30]))

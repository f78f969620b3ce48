"""Tests for the Breusch–Pagan diagnostic."""

import random

import pytest

from repro.analysis.heteroscedasticity import breusch_pagan


def homoscedastic_sample(n=200, seed=0):
    rng = random.Random(seed)
    xs = [float(i) for i in range(n)]
    ys = [2.0 + 0.5 * x + rng.gauss(0.0, 1.0) for x in xs]
    return xs, ys


def heteroscedastic_sample(n=200, seed=0):
    rng = random.Random(seed)
    xs = [float(i) for i in range(n)]
    # Error variance grows with x — the paper's daily-tau pathology.
    ys = [2.0 + 0.5 * x + rng.gauss(0.0, 0.2 + 0.15 * x) for x in xs]
    return xs, ys


class TestBreuschPagan:
    def test_accepts_homoscedastic_data(self):
        result = breusch_pagan(*homoscedastic_sample())
        assert result.p_value > 0.05
        assert not result.heteroscedastic()

    def test_detects_heteroscedastic_data(self):
        result = breusch_pagan(*heteroscedastic_sample())
        assert result.p_value < 0.01
        assert result.heteroscedastic()

    def test_statistic_is_nonnegative(self):
        result = breusch_pagan(*homoscedastic_sample(n=30, seed=3))
        assert result.lm_statistic >= 0.0
        assert result.n == 30

    def test_rejects_short_or_mismatched_input(self):
        with pytest.raises(ValueError):
            breusch_pagan([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            breusch_pagan([1.0, 2.0, 3.0, 4.0], [1.0, 2.0])

    def test_rejects_constant_regressor(self):
        with pytest.raises(ValueError):
            breusch_pagan([5.0] * 10, list(range(10)))


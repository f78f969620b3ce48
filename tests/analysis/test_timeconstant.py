"""Tests for the Palimpsest time-constant estimator."""

import pytest

from repro.analysis.timeconstant import (
    WINDOW_DAY,
    WINDOW_HOUR,
    estimate_time_constants,
)
from repro.core.store import ArrivalRecord
from repro.units import MINUTES_PER_DAY, MINUTES_PER_HOUR, days, gib


def arrival(t, size, admitted=True):
    return ArrivalRecord(
        t=t, size=size, admitted=admitted, creator="x", object_id=f"o{t}", unit="u"
    )


class TestEstimator:
    def test_constant_rate_gives_constant_tau(self):
        # 1 GiB every hour into a 24 GiB store: tau = 24 hours everywhere.
        arrivals = [arrival(i * MINUTES_PER_HOUR, gib(1)) for i in range(48)]
        series = estimate_time_constants(arrivals, gib(24), WINDOW_HOUR)
        assert series.points
        for _t, tau in series.points:
            assert tau == pytest.approx(24 * MINUTES_PER_HOUR)

    def test_tau_is_capacity_over_rate(self):
        arrivals = [arrival(0.0, gib(2))]
        series = estimate_time_constants(
            arrivals, gib(10), WINDOW_DAY, t_end=MINUTES_PER_DAY
        )
        # 2 GiB/day rate against 10 GiB: tau = 5 days.
        assert series.points[0][1] == pytest.approx(days(5))

    def test_empty_windows_are_skipped_and_counted(self):
        arrivals = [arrival(0.0, gib(1)), arrival(days(2), gib(1))]
        series = estimate_time_constants(
            arrivals, gib(10), WINDOW_DAY, t_end=days(3)
        )
        assert len(series.points) == 2
        assert series.empty_windows == 1

    def test_offered_vs_admitted_rates(self):
        arrivals = [arrival(0.0, gib(1)), arrival(1.0, gib(1), admitted=False)]
        offered = estimate_time_constants(
            arrivals, gib(10), WINDOW_DAY, t_end=MINUTES_PER_DAY
        )
        admitted = estimate_time_constants(
            arrivals, gib(10), WINDOW_DAY, t_end=MINUTES_PER_DAY, offered=False
        )
        assert offered.points[0][1] == pytest.approx(admitted.points[0][1] / 2)

    def test_bursty_arrivals_destabilise_small_windows(self):
        # One huge burst then silence: hourly windows swing wildly while a
        # single month-long window is stable by construction.
        arrivals = []
        for d in range(30):
            size = gib(10) if d % 7 == 0 else gib(0.1)
            arrivals.append(arrival(days(d), int(size)))
        hourly = estimate_time_constants(arrivals, gib(100), WINDOW_HOUR)
        monthly = estimate_time_constants(arrivals, gib(100), days(30))
        assert hourly.stability()["cv"] > monthly.stability()["cv"]

    def test_stability_of_empty_series(self):
        series = estimate_time_constants([], gib(10), WINDOW_DAY, t_end=days(1))
        stats = series.stability()
        assert stats["n"] == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_time_constants([], 0, WINDOW_DAY)
        with pytest.raises(ValueError):
            estimate_time_constants([], gib(1), 0.0)
        with pytest.raises(ValueError):
            estimate_time_constants([], gib(1), WINDOW_DAY, t_start=10.0, t_end=5.0)

"""Tests for diurnal/holiday arrival modulation."""

import pytest

from repro.errors import SimulationError
from repro.sim.workload.diurnal import (
    OFFICE_HOURS_PROFILE,
    DiurnalModulation,
    DiurnalProfile,
    semester_break_holidays,
)
from repro.sim.workload.single_app import SingleAppWorkload
from repro.units import MINUTES_PER_HOUR, days, hours
from tests.oracles.diurnal import expected_thinning


class TestDiurnalProfile:
    def test_peak_hour_keeps_full_rate(self):
        # Hour 9 is a peak (weight 1.0) on a weekday (day 0).
        assert OFFICE_HOURS_PROFILE.keep_probability(hours(9)) == 1.0

    def test_night_is_thinned(self):
        assert OFFICE_HOURS_PROFILE.keep_probability(hours(3)) < 0.1

    def test_weekend_factor_applies(self):
        saturday_peak = OFFICE_HOURS_PROFILE.keep_probability(days(5) + hours(9))
        assert saturday_peak == pytest.approx(0.3)

    def test_holidays_block_everything(self):
        profile = DiurnalProfile(
            hourly=(1.0,) * 24, holidays=frozenset({2})
        )
        assert profile.keep_probability(days(2) + hours(12)) == 0.0
        assert profile.keep_probability(days(3) + hours(12)) == 1.0

    @pytest.mark.parametrize("bad", [
        {"hourly": (1.0,) * 23},
        {"hourly": (-1.0,) + (1.0,) * 23},
        {"hourly": (0.0,) * 24},
        {"hourly": (1.0,) * 24, "weekend_factor": 1.5},
    ])
    def test_validation(self, bad):
        with pytest.raises(SimulationError):
            DiurnalProfile(**bad)


class TestDiurnalModulation:
    def test_thins_but_preserves_inner_objects(self):
        inner = SingleAppWorkload(seed=3, arrival_probability=1.0)
        modulated = DiurnalModulation(inner=inner, seed=1)
        kept = list(modulated.arrivals(days(30)))
        full = list(SingleAppWorkload(seed=3, arrival_probability=1.0)
                    .arrivals(days(30)))
        assert 0 < len(kept) < len(full)
        # Every kept object exists verbatim in the unmodulated stream.
        full_keys = {(o.t_arrival, o.size) for o in full}
        assert all((o.t_arrival, o.size) in full_keys for o in kept)

    def test_night_arrivals_are_rare(self):
        inner = SingleAppWorkload(seed=3, arrival_probability=1.0)
        kept = list(DiurnalModulation(inner=inner, seed=1).arrivals(days(60)))
        night = [o for o in kept
                 if 0 <= (o.t_arrival // MINUTES_PER_HOUR) % 24 < 5]
        day_hours = [o for o in kept
                     if 9 <= (o.t_arrival // MINUTES_PER_HOUR) % 24 < 17]
        assert len(night) < len(day_hours) / 5

    def test_expected_thinning_matches_empirical(self):
        inner = SingleAppWorkload(seed=3, arrival_probability=1.0)
        modulated = DiurnalModulation(inner=inner, seed=1)
        expected = expected_thinning(modulated.profile)
        kept = sum(1 for _ in modulated.arrivals(days(56)))  # whole weeks
        total = 56 * 24 + 1
        assert kept / total == pytest.approx(expected, rel=0.15)

    def test_deterministic_per_seed(self):
        def run(seed):
            inner = SingleAppWorkload(seed=3, arrival_probability=1.0)
            return [
                o.t_arrival
                for o in DiurnalModulation(inner=inner, seed=seed).arrivals(days(15))
            ]

        assert run(5) == run(5)
        assert run(5) != run(6)


class TestSemesterBreaks:
    def test_breaks_repeat_annually(self):
        holidays = semester_break_holidays(800, [(120, 150)])
        assert 130 in holidays
        assert 365 + 130 in holidays
        assert 100 not in holidays

    def test_starves_time_constant_windows(self):
        """The paper's realism caveat bites: with diurnal+holiday gaps the
        short-window tau estimator sees even more empty windows."""
        from repro.analysis.timeconstant import WINDOW_HOUR, estimate_time_constants
        from repro.sim.recorder import Recorder
        from repro.units import gib

        inner = SingleAppWorkload(seed=3, arrival_probability=1.0)
        modulated = DiurnalModulation(inner=inner, seed=1)
        recorder = Recorder()
        for obj in modulated.arrivals(days(60)):
            recorder.record_arrival(obj.t_arrival, obj.size, True, "x", obj.object_id)
        plain_recorder = Recorder()
        for obj in SingleAppWorkload(seed=3, arrival_probability=1.0).arrivals(days(60)):
            plain_recorder.record_arrival(
                obj.t_arrival, obj.size, True, "x", obj.object_id
            )
        modulated_series = estimate_time_constants(
            recorder.arrivals, gib(80), WINDOW_HOUR, t_end=days(60)
        )
        plain_series = estimate_time_constants(
            plain_recorder.arrivals, gib(80), WINDOW_HOUR, t_end=days(60)
        )
        assert modulated_series.empty_windows > plain_series.empty_windows

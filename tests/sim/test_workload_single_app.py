"""Tests for the Section 5.1 single-application workload."""

import pytest

from repro.core.importance import TwoStepImportance
from repro.errors import SimulationError
from repro.sim.workload.single_app import (
    PAPER_RAMP,
    RateRamp,
    SingleAppWorkload,
    paper_two_step_lifetime,
)
from repro.units import MINUTES_PER_HOUR, days, gib, months


class TestRateRamp:
    def test_paper_ramp_steps_quarterly(self):
        assert PAPER_RAMP.cap_at(0.0) == 0.5
        assert PAPER_RAMP.cap_at(months(3)) == 0.7
        assert PAPER_RAMP.cap_at(months(6)) == 1.0
        assert PAPER_RAMP.cap_at(months(9)) == 1.3

    def test_final_cap_holds_forever(self):
        assert PAPER_RAMP.cap_at(months(24)) == 1.3

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(SimulationError):
            RateRamp(caps_gib_per_hour=())
        with pytest.raises(SimulationError):
            RateRamp(caps_gib_per_hour=(0.5, -1.0))
        with pytest.raises(SimulationError):
            RateRamp(caps_gib_per_hour=(0.5,), step_minutes=0.0)


class TestPaperLifetime:
    def test_is_the_published_two_step(self):
        lifetime = paper_two_step_lifetime()
        assert lifetime == TwoStepImportance(
            p=1.0, t_persist=days(15), t_wane=days(15)
        )


class TestSingleAppWorkload:
    def test_deterministic_for_a_seed(self):
        a = [(o.t_arrival, o.size) for o in SingleAppWorkload(seed=9).arrivals(days(30))]
        b = [(o.t_arrival, o.size) for o in SingleAppWorkload(seed=9).arrivals(days(30))]
        assert a == b

    def test_different_seeds_differ(self):
        a = [(o.t_arrival, o.size) for o in SingleAppWorkload(seed=1).arrivals(days(30))]
        b = [(o.t_arrival, o.size) for o in SingleAppWorkload(seed=2).arrivals(days(30))]
        assert a != b

    def test_arrivals_are_hourly_aligned_and_ordered(self):
        times = [o.t_arrival for o in SingleAppWorkload(seed=3).arrivals(days(10))]
        assert all(t % MINUTES_PER_HOUR == 0 for t in times)
        assert times == sorted(times)

    def test_sizes_respect_the_cap(self):
        workload = SingleAppWorkload(seed=4)
        for obj in workload.arrivals(days(60)):
            assert workload.min_object_bytes <= obj.size <= gib(0.5)

    def test_duty_cycle_thins_arrivals(self):
        always_on = SingleAppWorkload(seed=5, arrival_probability=1.0)
        dense = sum(1 for _ in always_on.arrivals(days(30)))
        sparse = sum(1 for _ in SingleAppWorkload(seed=5).arrivals(days(30)))
        assert dense == 30 * 24 + 1
        assert sparse < dense / 2

    def test_calibration_fills_80gib_in_40_to_50_days(self):
        # The paper: "this space will be fully used up in about 40 to 50
        # days"; allow a generous band around the published one.
        total, fill_day = 0, None
        for obj in SingleAppWorkload(seed=42).arrivals(days(80)):
            total += obj.size
            if fill_day is None and total >= gib(80):
                fill_day = obj.t_arrival / days(1)
        assert fill_day is not None
        assert 30 <= fill_day <= 60

    def test_objects_carry_the_common_lifetime(self):
        lifetime = paper_two_step_lifetime()
        for obj in SingleAppWorkload(seed=6).arrivals(days(5)):
            assert obj.lifetime == lifetime
            assert obj.creator == "single-app"

    def test_rejects_bad_probability(self):
        with pytest.raises(SimulationError):
            SingleAppWorkload(arrival_probability=0.0)

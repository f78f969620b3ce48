"""Unit tests for the simulation clock."""

import pytest

from repro.errors import ClockError
from repro.sim.clock import SimClock


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(100.0).now == 100.0

    def test_rejects_negative_start(self):
        with pytest.raises(ClockError):
            SimClock(-1.0)

    def test_rejects_nan_start(self):
        with pytest.raises(ClockError):
            SimClock(float("nan"))

    def test_advance_to_moves_forward(self):
        clock = SimClock()
        assert clock.advance_to(50.0) == 50.0
        assert clock.now == 50.0

    def test_advance_to_same_time_is_allowed(self):
        clock = SimClock(10.0)
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_cannot_go_backwards(self):
        clock = SimClock(10.0)
        with pytest.raises(ClockError, match="backwards"):
            clock.advance_to(9.0)

    def test_advance_by(self):
        clock = SimClock(5.0)
        clock.advance_by(2.5)
        assert clock.now == 7.5

    def test_advance_by_rejects_negative_delta(self):
        with pytest.raises(ClockError):
            SimClock().advance_by(-0.1)

    def test_advance_to_rejects_nan(self):
        with pytest.raises(ClockError):
            SimClock().advance_to(float("nan"))

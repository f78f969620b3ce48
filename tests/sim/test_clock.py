"""Unit tests for the simulation clock: ``SimulationEngine.now``.

The engine's clock starts at zero and moves only forward, to each
dispatch time and then to the horizon of every :meth:`run` call.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimulationEngine().now == 0.0

    def test_advance_to_moves_forward(self):
        engine = SimulationEngine()
        assert engine.run(50.0) == 0
        assert engine.now == 50.0

    def test_advance_to_same_time_is_allowed(self):
        engine = SimulationEngine()
        engine.run(10.0)
        engine.run(10.0)
        assert engine.now == 10.0

    def test_advance_to_cannot_go_backwards(self):
        engine = SimulationEngine()
        engine.run(10.0)
        with pytest.raises(SimulationError, match="clock already at 10.0"):
            engine.run(9.0)
        assert engine.now == 10.0

    def test_advance_to_rejects_nan(self):
        with pytest.raises(SimulationError):
            SimulationEngine().run(float("nan"))

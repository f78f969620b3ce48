"""Unit tests for the dispatch loop: one arrival stream merged with ticks."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine, horizon_minutes
from tests.conftest import make_obj
from tests.oracles.heap_engine import HeapEngine


def _stream(*times):
    return [make_obj(0.001, t_arrival=float(t)) for t in times]


def _logging_offer(log):
    return lambda obj, t: log.append(("arrival", t))


class TestScheduling:
    def test_events_dispatch_in_time_order(self):
        engine = SimulationEngine()
        log = []
        engine.feed(_stream(10, 20, 30), _logging_offer(log))
        engine.every(25.0, lambda t: log.append(("tick", t)), start_minutes=5.0, label="p")
        engine.run(100.0)
        assert log == [
            ("tick", 5.0), ("arrival", 10.0), ("arrival", 20.0),
            ("arrival", 30.0), ("tick", 30.0), ("tick", 55.0), ("tick", 80.0),
        ]

    def test_ties_respect_priority_then_insertion(self):
        # At one minute: ``first`` ticks, then the arrivals in stream
        # order, then the other ticks; each phase in registration order.
        engine = SimulationEngine()
        log = []
        engine.every(10.0, lambda t: log.append("probe-a"), start_minutes=5.0, label="a")
        engine.every(10.0, lambda t: log.append("barrier-a"), start_minutes=5.0, first=True, label="b")
        engine.every(10.0, lambda t: log.append("probe-b"), start_minutes=5.0, label="c")
        engine.every(10.0, lambda t: log.append("barrier-b"), start_minutes=5.0, first=True, label="d")
        first, second = _stream(5, 5)
        engine.feed([first, second], lambda obj, t: log.append(obj.object_id))
        engine.run(10.0)
        assert log == [
            "barrier-a", "barrier-b", first.object_id, second.object_id, "probe-a", "probe-b",
        ]

    def test_cannot_schedule_into_the_past(self):
        engine = SimulationEngine()
        engine.run(20.0)
        with pytest.raises(SimulationError, match="before now"):
            engine.every(1.0, lambda t: None, start_minutes=5.0, label="late")
        with pytest.raises(SimulationError, match="before now"):
            engine.every(1.0, lambda t: None, start_minutes=math.nan, label="nan")


class TestFeed:
    def test_a_stream_starting_before_now_is_backwards(self):
        engine = SimulationEngine()
        engine.run(20.0)
        with pytest.raises(SimulationError, match="went backwards: 5.0 < 20.0"):
            engine.feed(_stream(5), lambda obj, t: None)

    def test_an_engine_takes_one_stream(self):
        engine = SimulationEngine()
        engine.feed([], lambda obj, t: None)
        with pytest.raises(SimulationError, match="one arrival stream"):
            engine.feed([], lambda obj, t: None)

    def test_an_arrival_on_the_horizon_is_offered(self):
        engine = SimulationEngine()
        log = []
        engine.feed(_stream(10, 11), _logging_offer(log), horizon_minutes=10.0)
        assert engine.run(20.0) == 1
        assert log == [("arrival", 10.0)]


class TestRun:
    def test_run_honours_horizon(self):
        engine = SimulationEngine()
        log = []
        engine.feed(_stream(10, 100), _logging_offer(log))
        dispatched = engine.run(50.0)
        assert dispatched == 1
        assert log == [("arrival", 10.0)]
        assert engine.now == 50.0  # clock parked at the horizon

    def test_run_can_be_resumed(self):
        engine = SimulationEngine()
        log = []
        engine.feed(_stream(10, 100), _logging_offer(log))
        engine.run(50.0)
        engine.run(150.0)
        assert log == [("arrival", 10.0), ("arrival", 100.0)]

    def test_run_backwards_raises(self):
        engine = SimulationEngine()
        engine.run(100.0)
        with pytest.raises(SimulationError, match="clock already at"):
            engine.run(50.0)

    @pytest.mark.parametrize("until", [100.5, 14400.144, math.nan])
    def test_run_off_the_whole_minutes_dispatches_nothing(self, until):
        engine = SimulationEngine()
        log = []
        engine.feed(_stream(10, 20), _logging_offer(log))
        engine.every(5.0, lambda t: log.append(("tick", t)), label="p")
        with pytest.raises(SimulationError, match="cannot run until"):
            engine.run(until)
        assert log == [] and engine.now == 0.0 and engine.dispatched == 0

    def test_horizon_minutes(self):
        assert horizon_minutes(10.0) == 14400.0
        with pytest.raises(SimulationError, match=r"10\.0001 days is 14400\.144 minutes"):
            horizon_minutes(10.0001)

    def test_dispatch_counter_accumulates(self):
        engine = SimulationEngine()
        engine.feed(_stream(0, 1, 2, 3, 4), lambda obj, t: None)
        engine.every(5.0, lambda t: None, label="p")
        assert engine.run(7.0) == 7
        assert engine.run(10.0) == 1
        assert engine.dispatched == 8

    def test_an_empty_engine_runs_to_any_horizon(self):
        engine = SimulationEngine()
        assert engine.run(math.inf) == 0
        assert engine.now == math.inf

    def test_a_drained_run_ends_at_the_last_arrival(self):
        # Ticks on the last arrival's minute fire in both phases; the ones
        # after it do not, and the clock stops there.
        engine = SimulationEngine()
        log = []
        engine.feed(_stream(10, 25), _logging_offer(log))
        engine.every(5.0, lambda t: log.append(("first", t)), first=True, label="a")
        engine.every(25.0, lambda t: log.append(("after", t)), label="b")
        assert engine.run() == 10
        assert log[-3:] == [("first", 25.0), ("arrival", 25.0), ("after", 25.0)]
        assert engine.now == 25.0
        assert engine.run() == 0

    def test_a_drained_run_without_arrivals_fires_only_the_current_minute(self):
        engine = SimulationEngine()
        log = []
        engine.every(5.0, log.append, label="p")
        assert engine.run() == 1
        assert (log, engine.now) == ([0.0], 0.0)


class TestPeriodic:
    def test_fires_at_fixed_interval(self):
        engine = SimulationEngine()
        log = []
        engine.every(10.0, log.append, label="p")
        engine.run(35.0)
        assert log == [0.0, 10.0, 20.0, 30.0]

    def test_interval_must_be_positive(self):
        with pytest.raises(SimulationError):
            SimulationEngine().every(0.0, lambda t: None, label="p")

    def test_periodic_survives_horizon_pauses(self):
        engine = SimulationEngine()
        log = []
        engine.every(10.0, log.append, label="p")
        engine.run(25.0)
        engine.run(45.0)
        assert log == [0.0, 10.0, 20.0, 30.0, 40.0]

    def test_start_after_end_schedules_nothing(self):
        engine = SimulationEngine()
        log = []
        engine.every(10.0, log.append, start_minutes=50.0, label="p")
        engine.run(40.0)
        assert log == []

    def test_fires_exactly_at_end_boundary(self):
        # A firing landing exactly on the horizon happens; the next one
        # (horizon + interval) waits for a later run.
        engine = SimulationEngine()
        log = []
        engine.every(10.0, log.append, label="p")
        engine.run(30.0)
        assert log == [0.0, 10.0, 20.0, 30.0]

    def test_nan_interval_raises(self):
        with pytest.raises(SimulationError):
            SimulationEngine().every(float("nan"), lambda t: None, label="p")

    def test_negative_interval_raises(self):
        with pytest.raises(SimulationError):
            SimulationEngine().every(-5.0, lambda t: None, label="p")

    def test_fractional_interval_raises_at_registration(self):
        # A tick between minutes would read the units off their clock's
        # grid; it is refused before the run, not at its first read.
        engine = SimulationEngine()
        with pytest.raises(SimulationError, match="whole number of minutes"):
            engine.every(432.5, lambda t: None, label="p")
        assert engine._ticks == []

    def test_fractional_start_raises_at_registration(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError, match="off the whole minutes"):
            engine.every(10.0, lambda t: None, start_minutes=2.5, label="p")
        with pytest.raises(SimulationError, match="a whole minute"):
            engine.run(7.5)  # a horizon is a whole minute too
        # An arrival off the whole minutes leaves the clock between minutes
        # (the store it is offered to refuses it); the default start is the clock.
        engine.feed(_stream(7.5), lambda obj, t: None)
        engine.run()
        assert engine.now == 7.5
        with pytest.raises(SimulationError, match="off the whole minutes"):
            engine.every(10.0, lambda t: None, label="p")
        assert engine._ticks == []


@st.composite
def _schedules(draw):
    """A whole-minute stream, 0-2 ticks (one per phase) and the run horizons.

    A ``None`` stop is a drained run, drawn last.  Ticks may start on the
    last arrival's minute, so a drained run's final minute fires both phases.
    """
    gaps = draw(st.lists(st.integers(0, 3), max_size=30))
    times = [sum(gaps[: i + 1]) for i in range(len(gaps))]
    horizon = draw(st.integers(0, 60) | st.just(math.inf))
    phases = draw(st.permutations([True, False]))[: draw(st.integers(0, 2))]
    starts = st.integers(0, 30)
    if times:
        starts |= st.just(times[-1])
    ticks = [(draw(st.integers(1, 20)), draw(starts), first) for first in phases]
    stops = sorted(draw(st.lists(st.integers(0, 80), max_size=2)))
    if not stops or draw(st.booleans()):
        stops.append(None)
    return times, horizon, ticks, stops


def _dispatch_log(engine_type, times, horizon, ticks, stops):
    engine = engine_type()
    log = []
    objs = [make_obj(0.001, t_arrival=float(t), object_id=f"o{i}") for i, t in enumerate(times)]
    engine.feed(
        objs, lambda obj, t: log.append((t, "arrival", obj.object_id)), horizon_minutes=horizon
    )
    for k, (interval, start, first) in enumerate(ticks):
        engine.every(
            float(interval), lambda t, k=k: log.append((t, "tick", k)),
            start_minutes=float(start), first=first, label=f"t{k}",
        )
    counts = [engine.run(None if stop is None else float(stop)) for stop in stops]
    return log, counts, engine.dispatched, engine.now


@settings(max_examples=300, deadline=None)
@given(_schedules())
def test_the_loop_dispatches_as_the_heap_did(schedule):
    assert _dispatch_log(SimulationEngine, *schedule) == _dispatch_log(HeapEngine, *schedule)

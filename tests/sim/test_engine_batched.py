"""One dispatch loop: obs on and obs off must be order-identical.

The engine drains same-timestamp runs while advancing the clock once per
distinct timestamp, and meters each event inside that same loop when
:mod:`repro.obs` is enabled.  Both settings must dispatch the identical
sequence — (time, priority, insertion order) — including events that
callbacks schedule at the *current* timestamp mid-batch, and must show a
callback the same ``engine.dispatched`` mid-run.
"""

import random

import pytest

from repro import obs
from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine


def _build_schedule(engine, seen, rng):
    """A randomized schedule heavy on duplicate timestamps."""
    times = [float(rng.randrange(0, 20)) for _ in range(60)]
    for i, t in enumerate(times):
        def callback(now, i=i, t=t):
            seen.append((t, i, now, engine.clock.now, engine.dispatched))
            # Occasionally extend the current batch and the future.
            if i % 7 == 0:
                engine.schedule_at(now, lambda n, i=i: seen.append(("same", i, n, engine.clock.now)))
            if i % 11 == 0:
                engine.schedule_at(now + 3.0, lambda n, i=i: seen.append(("later", i, n, engine.clock.now)))

        engine.schedule_at(t, callback, priority=rng.choice((-1, 0, 0, 2)))


def _run(instrumented, seed):
    engine = SimulationEngine()
    seen = []
    _build_schedule(engine, seen, random.Random(seed))
    if instrumented:
        obs.reset()
        obs.enable()
        try:
            dispatched = engine.run(30.0)
        finally:
            obs.disable()
            obs.reset()
    else:
        assert not obs.STATE.enabled
        dispatched = engine.run(30.0)
    return seen, dispatched, engine.clock.now, engine.dispatched


@pytest.mark.parametrize("seed", [3, 1984, 77])
def test_batched_order_matches_the_instrumented_loop(seed):
    batched = _run(False, seed)
    reference = _run(True, seed)
    assert batched == reference
    seen, dispatched, now, total = batched
    assert dispatched == total == len(seen)
    assert now == 30.0
    # The observed clock always equals the event time: batching never
    # lets the clock lag or lead within a timestamp run.
    for record in seen:
        assert record[2] == record[3]
    # ``engine.dispatched`` read mid-run counts the events before this one
    # (nested "same"/"later" events sit between the numbered ones).
    counts = [record[4] for record in seen if len(record) == 5]
    assert counts[0] == 0 and counts == sorted(set(counts))


def test_max_events_stops_mid_batch():
    engine = SimulationEngine()
    seen = []
    for i in range(10):
        engine.schedule_at(5.0, lambda now, i=i: seen.append(i))
    assert engine.run(100.0, max_events=4) == 4
    assert seen == [0, 1, 2, 3]
    # Interrupted runs leave the clock at the stop point, not the horizon.
    assert engine.clock.now == 5.0
    assert engine.run(100.0) == 6
    assert seen == list(range(10))
    assert engine.clock.now == 100.0
    assert engine.dispatched == 10


def test_stop_inside_a_batch_halts_immediately():
    engine = SimulationEngine()
    seen = []
    engine.schedule_at(2.0, lambda now: (seen.append("a"), engine.stop()))
    engine.schedule_at(2.0, lambda now: seen.append("b"))
    assert engine.run(10.0) == 1
    assert seen == ["a"]
    assert engine.pending == 1


def test_dispatched_counter_survives_a_raising_callback():
    engine = SimulationEngine()
    engine.schedule_at(1.0, lambda now: None)
    engine.schedule_at(2.0, lambda now: (_ for _ in ()).throw(SimulationError("boom")))
    with pytest.raises(SimulationError):
        engine.run(10.0)
    # The event before the crash was dispatched and counted.
    assert engine.dispatched == 1
    assert engine.clock.now == 2.0

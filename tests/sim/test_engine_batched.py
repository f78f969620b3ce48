"""One dispatch loop: obs on and obs off must be order-identical.

With :mod:`repro.obs` enabled the engine meters each arrival and tick by
wrapping its callback, and runs the same loop.  Both settings must
dispatch the identical sequence, including runs of same-minute arrivals
around ticks of both phases, and must show a callback the same
``engine.now`` and ``engine.dispatched`` mid-run.
"""

import random

import pytest

from repro import obs
from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine
from tests.conftest import make_obj


def _build_schedule(engine, seen, rng):
    """A randomized stream heavy on duplicate minutes, plus two ticks."""
    times = sorted(float(rng.randrange(0, 20)) for _ in range(60))
    objs = [make_obj(0.001, t_arrival=t, object_id=f"o{i}") for i, t in enumerate(times)]
    engine.feed(
        objs,
        lambda obj, now: seen.append((obj.object_id, now, engine.now, engine.dispatched)),
    )
    for k, first in enumerate((True, False)):
        engine.every(
            float(rng.randrange(1, 7)),
            lambda now, k=k: seen.append((f"tick{k}", now, engine.now, engine.dispatched)),
            start_minutes=float(rng.randrange(0, 5)),
            first=first,
            label=f"tick{k}",
        )


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
    return seen, dispatched, engine.now, engine.dispatched


@pytest.mark.parametrize("seed", [3, 1984, 77])
def test_batched_order_matches_the_instrumented_loop(seed):
    batched = _run(False, seed)
    reference = _run(True, seed)
    assert batched == reference
    seen, dispatched, now, total = batched
    assert dispatched == total == len(seen)
    assert now == 30.0
    # The observed clock always equals the dispatch time, and
    # ``engine.dispatched`` read mid-run counts the dispatches before it.
    for position, (_name, at, clock, count) in enumerate(seen):
        assert at == clock
        assert count == position


def test_dispatched_counter_survives_a_raising_callback():
    engine = SimulationEngine()

    def offer(obj, now):
        if now == 2.0:
            raise SimulationError("boom")

    engine.feed([make_obj(0.001, t_arrival=1.0), make_obj(0.001, t_arrival=2.0)], offer)
    with pytest.raises(SimulationError):
        engine.run(10.0)
    # The arrival before the crash was dispatched and counted.
    assert engine.dispatched == 1
    assert engine.now == 2.0

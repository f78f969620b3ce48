#!/usr/bin/env python3
"""Resident footprint: bookkeeping bytes per resident, and µs per admit and
per remove, of one :class:`~repro.core.store.StorageUnit`; then the bytes
its history keeps per object that left it.

    python3 tools/resident_footprint.py [--residents 50000] [--repeat 3]

Resident ``i`` arrives at minute ``i`` (a unit takes whole-minute arrivals
only), in two duration regimes: on the integer-minute grid (its two-step
annotation puts it in a victim family) and off it (a persist window 0.37
minutes longer, so it sits in an annotation group).  Each regime builds a
unit large enough that every admit lands in free space, with six two-step
annotations and three creators cycling through the arrivals, all made
before measuring:

* **bytes / resident** — ``tracemalloc`` bytes still allocated after the
  admits, over the resident count: everything the unit keeps per resident
  besides the ``StoredObject`` itself;
* **µs / admit** — ``StorageUnit.offer`` wall time per free-space admit,
  tracing off, best of ``--repeat`` fresh builds;
* **µs / remove** — ``StorageUnit.remove`` of every resident in a seeded
  shuffled order, per call, best of ``--repeat``.

A second table offers the grid-regime arrivals, one at a time and each
dropped after its offer as a simulation run drops it, to a 64 KiB unit
with ``keep_history=True`` and an attached
:class:`~repro.sim.recorder.Recorder` that also logs every arrival:

* **bytes / departed object** — ``tracemalloc`` bytes still allocated
  after the run, over the evicted plus rejected count: the unit's and the
  recorder's history per object that left (the few dozen residents such a
  unit holds are counted in, and weigh nothing at this scale);
* **heap entries / resident** — the unit's breakpoint-heap entries at the
  end of the run over its residents: live plus stale (the entries of
  evicted residents, which the heap sheds past a fixed share).

A third table routes the request stream of the ``serve_flash`` benchmark
spec (``bench/workloads.py``; seed 42, the 80.25-day horizon of one
``--seconds 15`` repetition) with
:func:`~repro.serve.sharded.route_stream`, as every serving shard holds it:

* **bytes / held request** — ``tracemalloc`` bytes still allocated while
  the requests and their route plan are held, over the request count.
  Unlike RSS, this count does not move between runs of the same code.

Stdlib only; ``make resident-footprint`` runs it at the defaults.
"""

from __future__ import annotations

import argparse
import random
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src")]

from repro.besteffs.auth import CapabilityRealm  # noqa: E402
from repro.core.importance import TwoStepImportance  # noqa: E402
from repro.core.obj import StoredObject, reset_object_ids  # noqa: E402
from repro.core.policies.temporal import TemporalImportancePolicy  # noqa: E402
from repro.core.store import StorageUnit  # noqa: E402
from repro.serve.loadgen import LoadGenSpec  # noqa: E402
from repro.serve.sharded import route_stream  # noqa: E402
from repro.sim.recorder import Recorder  # noqa: E402

DAY = 1440.0
CREATORS = ("university", "student", "archive")
REGIMES = (("grid", 0.0), ("off-grid", 0.37))
#: The ``serve_flash`` benchmark spec at seed 42 and ``--seconds 15``.
FLASH_SPEC = LoadGenSpec(
    workload="flashcrowd", mode="closed", clients=16, shards=4, nodes=16,
    node_capacity_gib=800, scale=0.05, burst_factor=4, hot_objects=64, high_water=16,
    window_minutes=720, budget_gib_days=1e9, seed=42, horizon_days=10.7 * 7.5,
)


def annotations(offset: float) -> list[TwoStepImportance]:
    return [
        TwoStepImportance(p=p, t_persist=persist * DAY + offset, t_wane=15 * DAY)
        for p in (1.0, 0.5)
        for persist in (15, 30, 90)
    ]


def make_object(i: int, lifetimes: list[TwoStepImportance]) -> StoredObject:
    return StoredObject(
        size=1 + i % 4096,
        t_arrival=float(i),
        lifetime=lifetimes[i % len(lifetimes)],
        object_id=f"o{i}",
        creator=CREATORS[i % len(CREATORS)],
    )


def arrivals(n: int, offset: float) -> list[StoredObject]:
    lifetimes = annotations(offset)
    return [make_object(i, lifetimes) for i in range(n)]


def fresh_unit() -> StorageUnit:
    return StorageUnit(2**62, TemporalImportancePolicy(), keep_history=False)


def admit_all(unit: StorageUnit, objs: list[StoredObject]) -> float:
    t0 = perf_counter()
    for obj in objs:
        unit.offer(obj, obj.t_arrival)
    return perf_counter() - t0


def footprint(objs: list[StoredObject]) -> float:
    """Bytes the unit keeps per resident after admitting ``objs``."""
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    unit = fresh_unit()
    admit_all(unit, objs)
    kept = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    assert len(unit) == len(objs)
    return kept / len(objs)


def departed_footprint(n: int) -> tuple[float, int, float]:
    """Bytes a history-keeping unit and its recorder hold per departed
    object, the departed count and heap entries per resident at the end."""
    lifetimes = annotations(0.0)
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    unit = StorageUnit(64 * 1024, TemporalImportancePolicy(), keep_history=True)
    recorder = Recorder()
    recorder.attach(unit)
    for i in range(n):
        obj = make_object(i, lifetimes)
        admitted = unit.offer(obj, obj.t_arrival).admitted
        recorder.record_arrival(
            obj.t_arrival, obj.size, admitted, obj.creator, obj.object_id, unit.name
        )
    del obj
    kept = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    departed = unit.evicted_count + unit.rejected_count
    assert departed == len(recorder.evictions) + len(recorder.rejections)
    return kept / departed, departed, len(unit.importance_index._heap) / len(unit)


def held_stream_footprint() -> tuple[float, int]:
    """Bytes a routed ``serve_flash`` request stream holds per request."""
    reset_object_ids()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    requests, _plan = route_stream(FLASH_SPEC, CapabilityRealm(key=b"footprint"))
    kept = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return kept / len(requests), len(requests)


def timings(objs: list[StoredObject], repeat: int) -> tuple[float, float]:
    """Best-of-``repeat`` µs per admit and per remove."""
    admit = remove = float("inf")
    order = [obj.object_id for obj in objs]
    random.Random(7).shuffle(order)
    now = objs[-1].t_arrival
    for _ in range(repeat):
        unit = fresh_unit()
        admit = min(admit, admit_all(unit, objs))
        t0 = perf_counter()
        for oid in order:
            unit.remove(oid, now)
        remove = min(remove, perf_counter() - t0)
        assert not len(unit)
    return admit * 1e6 / len(objs), remove * 1e6 / len(objs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--residents", type=int, default=50_000)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    print(f"| {args.residents:,} residents | bytes / resident | µs / admit | µs / remove |")
    print("|---|---|---|---|")
    for name, offset in REGIMES:
        objs = arrivals(args.residents, offset)
        per_resident = footprint(objs)
        admit_us, remove_us = timings(objs, args.repeat)
        print(f"| {name} | {per_resident:,.0f} | {admit_us:.1f} | {remove_us:.1f} |")
    per_departed, departed, entries = departed_footprint(args.residents)
    print()
    print(f"| {args.residents:,} offers, 64 KiB unit | bytes / departed object | departed "
          "| heap entries / resident |")
    print("|---|---|---|---|")
    print(f"| history + Recorder | {per_departed:,.0f} | {departed:,} | {entries:.2f} |")
    per_request, held = held_stream_footprint()
    print()
    print("| `serve_flash` stream, seed 42 | bytes / held request | requests |")
    print("|---|---|---|")
    print(f"| route_stream | {per_request:,.0f} | {held:,} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

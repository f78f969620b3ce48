#!/usr/bin/env python3
"""Resident footprint: bookkeeping bytes per resident, and µs per admit and
per remove, of one :class:`~repro.core.store.StorageUnit`.

    python3 tools/resident_footprint.py [--residents 50000] [--repeat 3]

Two arrival regimes: on the integer-minute grid (resident ``i`` arrives at
minute ``i``, so its two-step annotation puts it in a victim family) and
off it (minute ``i + 0.37``, so it sits in an annotation group).  Each
regime builds a unit large enough that every admit lands in free space,
with six two-step annotations and three creators cycling through the
arrivals, all made before measuring:

* **bytes / resident** — ``tracemalloc`` bytes still allocated after the
  admits, over the resident count: everything the unit keeps per resident
  besides the ``StoredObject`` itself;
* **µs / admit** — ``StorageUnit.offer`` wall time per free-space admit,
  tracing off, best of ``--repeat`` fresh builds;
* **µs / remove** — ``StorageUnit.remove`` of every resident in a seeded
  shuffled order, per call, best of ``--repeat``.

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

from repro.core.importance import TwoStepImportance  # noqa: E402
from repro.core.obj import StoredObject  # noqa: E402
from repro.core.policies.temporal import TemporalImportancePolicy  # noqa: E402
from repro.core.store import StorageUnit  # noqa: E402

DAY = 1440.0
ANNOTATIONS = tuple(
    TwoStepImportance(p=p, t_persist=persist * DAY, t_wane=15 * DAY)
    for p in (1.0, 0.5)
    for persist in (15, 30, 90)
)
CREATORS = ("university", "student", "archive")
REGIMES = (("grid", 0.0), ("off-grid", 0.37))


def arrivals(n: int, offset: float) -> list[StoredObject]:
    return [
        StoredObject(
            size=1 + i % 4096,
            t_arrival=i + offset,
            lifetime=ANNOTATIONS[i % len(ANNOTATIONS)],
            object_id=f"o{i}",
            creator=CREATORS[i % len(CREATORS)],
        )
        for i in range(n)
    ]


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
    return 0


if __name__ == "__main__":
    sys.exit(main())

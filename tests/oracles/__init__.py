"""Full-scan reference implementations of a store's resident bookkeeping.

``src/`` has one way to hold resident state: every
:class:`~repro.core.store.StorageUnit` books each resident once, as a
:class:`~repro.core.index.Resident` record in the table of its
:class:`~repro.core.index.ImportanceIndex`, and counts its bytes per
creator in a :class:`~repro.core.slab.ResidentSlab`.  The naive paths
those structures replaced are kept here, as plain implementations of the
same protocols that answer every question by scanning all residents.
Differential suites (and the ``benchmarks/test_perf_*`` twins) inject
them into a store and require bit-equal plans, eviction records,
densities, per-creator totals and expiry order.

:class:`ScanIndex` keeps the same table the store reads (records in
admission order, keyed by object id: evicted ids leave, re-admitted ids
re-enter at the end), which is the order ``StorageUnit.iter_residents``
yields, and nothing else.  :class:`ScanSlab` keeps the residents by id.
:func:`importance_order` is the paper's victim order as a full sort, and
:func:`victim_candidates` the walk over importance levels that bounds the
greedy prefix to a superset of it.

:class:`FloorTally` is the oracle of the temporal probe's cached refusal
floor: it counts the probes the floor answers and re-scores each of them
with the merge fold the floor skipped.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.core.index import PHASE_CONSTANT, ImportanceIndex, Resident
from repro.core.obj import ObjectId, StoredObject
from repro.core.policy import EvictionPolicy
from repro.core.store import StorageUnit
from repro.core.victims import GroupedResidents

__all__ = [
    "FloorTally",
    "ScanIndex",
    "ScanSlab",
    "importance_order",
    "oracle_store",
    "victim_candidates",
]


def importance_order(residents: Iterable[StoredObject], now: float) -> list[StoredObject]:
    """Paper ordering: increasing current importance, then remaining lifetime.

    A stable third key (arrival time, then id) makes the simulation fully
    deterministic even when many objects share importance and expiry.
    """
    return sorted(
        residents,
        key=lambda o: (
            o.importance_at(now),
            o.remaining_lifetime_at(now),
            o.t_arrival,
            o.object_id,
        ),
    )


def victim_candidates(index: ImportanceIndex, now: float, needed: int) -> list[StoredObject]:
    """A superset of the naive greedy victim prefix for ``needed`` bytes.

    All expired and waning residents of ``index`` plus its constant-phase
    residents by ascending ``p``, whole levels at a time, until expired +
    constant candidate bytes cover ``needed``.  Every excluded resident has
    constant importance strictly above the last included level, and the
    included sub-``p`` mass already covers the deficit, so the greedy
    prefix of the exact ordering never reaches an excluded object: sorting
    just these candidates reproduces the full-sort plan bit for bit.
    """
    index.advance(now)
    out: list[StoredObject] = []
    levels: dict[float, list[StoredObject]] = {}
    freed = 0
    for rec in index.residents.values():
        obj = rec.obj
        if rec.phase == PHASE_CONSTANT:
            levels.setdefault(obj.lifetime.initial_importance, []).append(obj)
        else:
            out.append(obj)
            freed += obj.size if obj.is_expired_at(now) else 0
    for p in sorted(levels):
        if freed >= needed:
            break
        out.extend(levels[p])
        freed += sum(obj.size for obj in levels[p])
    return out


class ScanIndex:
    """:class:`~repro.core.index.ImportanceIndex`'s protocol, by full scan.

    ``greedy_victims`` sorts *all* residents and takes the greedy prefix —
    the paper's rule as written — and ``preempted_floor`` always declines,
    so a probe is scored from that plan.
    """

    def __init__(self) -> None:
        self.residents: dict[ObjectId, Resident] = {}

    @property
    def _objs(self) -> list[StoredObject]:
        return [rec.obj for rec in self.residents.values()]

    def add(self, obj: StoredObject, now: float) -> None:
        self.residents[obj.object_id] = Resident(obj, len(self.residents), now)

    def discard(self, object_id: ObjectId) -> None:
        self.residents.pop(object_id, None)

    def greedy_victims(self, now: float, needed: int) -> tuple[list[StoredObject], float, int]:
        victims = list(EvictionPolicy._greedy_victims(importance_order(self._objs, now), needed))
        highest = max((obj.importance_at(now) for obj in victims), default=0.0)
        return victims, highest, sum(obj.size for obj in victims)

    def preempted_floor(self, now: float, needed: int, incoming: float, strict: bool) -> None:
        return None

    def expired_objects(self, now: float) -> list[StoredObject]:
        return [obj for obj in self._objs if obj.is_expired_at(now)]

    def exact_mass(self, now: float) -> float:
        return math.fsum(
            importance * obj.size
            for obj in self._objs
            if (importance := obj.importance_at(now)) > 0.0
        )


class ScanSlab:
    """:class:`~repro.core.slab.ResidentSlab`'s protocol, by full scan."""

    def __init__(self) -> None:
        self._obj: dict[ObjectId, StoredObject] = {}

    def add(self, obj: StoredObject) -> None:
        self._obj[obj.object_id] = obj

    def discard(self, obj: StoredObject) -> None:
        del self._obj[obj.object_id]

    def bytes_by_creator(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for obj in self._obj.values():
            out[obj.creator] = out.get(obj.creator, 0) + obj.size
        return out


def oracle_store(
    capacity_bytes: int,
    policy: EvictionPolicy,
    *,
    scan_index: bool = True,
    scan_slab: bool = True,
    **kwargs,
) -> StorageUnit:
    """An empty :class:`StorageUnit` with the scan oracles injected.

    ``scan_index`` / ``scan_slab`` pick which structure is replaced, so a
    suite can isolate one of them against its oracle while the other stays
    the same on both sides of the comparison.
    """
    store = StorageUnit(capacity_bytes, policy, **kwargs)
    if scan_index:
        store.importance_index = ScanIndex()
    if scan_slab:
        store.resident_slab = ScanSlab()
    return store


class FloorTally:
    """Counts temporal probes answered by the cached floor vs the merge fold.

    While entered (``with FloorTally() as tally:``) it wraps
    ``GroupedResidents.preempted_floor``: a probe that returns without
    reaching ``GroupedResidents._merge_floor`` was answered by the floor,
    must read ``(False, incoming)``, and is re-scored by the merge, which
    must refuse too.  ``floor`` and ``merge`` count the two kinds; a floor
    answer the merge disagrees with is kept in ``disagreements`` (for runs
    that turn exceptions into responses) and raised.
    """

    def __init__(self) -> None:
        self.floor = 0
        self.merge = 0
        self.disagreements: list[tuple] = []
        self._saved: tuple | None = None

    def __enter__(self) -> "FloorTally":
        floor = GroupedResidents.preempted_floor
        merge = GroupedResidents._merge_floor
        self._saved = (floor, merge)
        tally = self

        def counted_merge(groups, *args):
            tally.merge += 1
            return merge(groups, *args)

        def checked_floor(groups, now, deficit, incoming, strict):
            merges = tally.merge
            scored = floor(groups, now, deficit, incoming, strict)
            if scored is not None and tally.merge == merges:
                tally.floor += 1
                folded = merge(groups, float(now), deficit, incoming, strict)
                if scored != (False, incoming) or folded is None or folded[0]:
                    tally.disagreements.append((now, deficit, incoming, strict, scored, folded))
                    raise AssertionError(f"floor answer disagrees: {tally.disagreements[-1]}")
            return scored

        GroupedResidents.preempted_floor = checked_floor
        GroupedResidents._merge_floor = counted_merge
        return self

    def __exit__(self, *exc) -> None:
        GroupedResidents.preempted_floor, GroupedResidents._merge_floor = self._saved

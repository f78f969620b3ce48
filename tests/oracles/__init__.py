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

:class:`FloorTally` is the oracle of the temporal probe's cached refusal
floor: it counts the probes the floor answers and re-scores each of them
with the merge fold the floor skipped.
"""

from __future__ import annotations

import math

from repro.core.index import Resident
from repro.core.obj import ObjectId, StoredObject
from repro.core.policy import EvictionPolicy
from repro.core.store import StorageUnit
from repro.core.victims import GroupedResidents

__all__ = ["FloorTally", "ScanIndex", "ScanSlab", "oracle_store"]


class ScanIndex:
    """:class:`~repro.core.index.ImportanceIndex`'s protocol, by full scan.

    ``greedy_victims`` and ``preempted_floor`` always decline, so admission
    planning takes the candidates-plus-sort path over *all* residents — the
    paper's rule as written (sort everything by current importance, take
    the greedy prefix) — and a probe is scored from that plan.
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

    def greedy_victims(self, now: float, needed: int) -> None:
        return None

    def preempted_floor(self, now: float, needed: int, incoming: float, strict: bool) -> None:
        return None

    def victim_candidates(self, now: float, needed: int) -> list[StoredObject]:
        return self._objs

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

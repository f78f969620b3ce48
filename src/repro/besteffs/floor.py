"""The zero-walk refusal: a cluster-wide full-for-importance floor.

Section 5.3 refuses an object only after ``m`` rounds of ``x`` random
walks find every probed unit full for its importance.  Under pressure
almost every such refusal is hopeless on the whole cluster, and that is
knowable without walking.  A unit running the temporal-importance rule
refuses an object of importance ``level`` while the clock is at or before
its full-for-importance instant
(:meth:`~repro.core.index.ImportanceIndex.full_through`) and the object is
larger than its *spare* bytes, the free plus expired bytes it can give up
without preempting anything live.  :class:`RefusalFloor` keeps, per level,
the minimum of that instant over the member units and, across levels, the
maximum spare.  An offer at or before the one and larger than the other is
refused by every unit, so by every walk, and
:meth:`~repro.besteffs.cluster.BesteffsCluster.offer` refuses it before
drawing an origin.

Why a floor refusal is the walk's refusal:

* A unit's entry never exceeds its instant.  An entry is the instant read
  from the unit, or that lowered by an admission the cluster committed
  (``min(entry, the new resident's own instant)``): a discard only
  lengthens the instant, so victims need no update.  Time only moves
  forward, so an entry earlier than ``now`` is never trusted again: the
  unit is read afresh when it tops its level's heap.
* While the clock is at or before the entry, every resident live when
  the spare was read stays live (it blocks), so no byte expires and the
  spare read then is the spare now.  The spare is read whenever an entry
  is, and after every committed admission.  An offer that fits in the
  largest spare of a unit unchanged since its read is left to the walk
  without reading any entry.
* Any other change to a unit (``BesteffsNode.accept``, ``store.remove``,
  an expiry sweep) moves its store's admission or eviction count.  An
  eviction can grow the spare: the cluster's eviction hook marks the unit
  (:meth:`RefusalFloor.evicted`) and the next offer reads it afresh.  A
  direct admission cannot turn a refusal into an admission (its bytes come
  out of free space, and it sorts before every resident that blocks), but
  a later spare read would count those bytes as gone for good, so a read
  or a commit that finds the counts moved reads every entry of the unit
  afresh.  A joined unit enters every level at ``-inf`` with its capacity
  as its spare; an expelled one leaves.
* The floor mirrors only :class:`TemporalImportancePolicy` probes.  While
  a member runs any other policy it decides nothing, and the walk runs.

Heaps are lazy: an entry that no longer matches its unit's value is
dropped when it surfaces, and a heap is rebuilt from the values once it
holds more than a few entries per unit.  At most :data:`MAX_LEVELS`
levels are kept, the least recently offered leaving first.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush, heapreplace

from repro.besteffs.node import BesteffsNode
from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.core.victims import on_exact_grid

__all__ = ["MAX_LEVELS", "RefusalFloor"]

#: Incoming importance levels with a heap of their own.
MAX_LEVELS = 8

#: A heap is rebuilt once it holds this many entries per unit.
_SLACK = 4


def _stamp(store: StorageUnit) -> int:
    """Admissions plus evictions: moves with every change to the unit."""
    return store.accepted_count + store.evicted_count


class _Unit:
    """What the floor knows of one member unit."""

    __slots__ = ("node_id", "store", "strict", "stamp", "spare")

    def __init__(self, node: BesteffsNode) -> None:
        self.node_id = node.node_id
        self.store = store = node.store
        policy = store.policy
        #: The probe's rule, or None when the floor does not mirror it.
        self.strict = policy.strict if type(policy) is TemporalImportancePolicy else None
        #: The store's changes the entries account for (none until read).
        self.stamp = -1
        #: Free plus expired bytes as last read (the capacity until then).
        self.spare = store.capacity_bytes


class _Level:
    """One incoming importance: each unit's entry and their min-heap."""

    __slots__ = ("through", "heap")

    def __init__(self, node_ids) -> None:
        self.through = dict.fromkeys(node_ids, -math.inf)
        self.heap = [(-math.inf, node_id) for node_id in self.through]
        heapify(self.heap)


class RefusalFloor:
    """Refuses, without a walk, an offer every member unit would refuse."""

    def __init__(self) -> None:
        self._units: dict[str, _Unit] = {}
        self._levels: dict[float, _Level] = {}
        #: Max-heap of ``(-spare, node_id)``: each unit has an entry at or
        #: above its spare, and one above it is corrected when it surfaces.
        self._spare: list[tuple[int, str]] = []
        #: Units that evicted since the floor last read them.
        self._moved: set[str] = set()
        self._unmirrored = 0
        self._clock = -math.inf

    # -- membership ----------------------------------------------------------

    def add(self, node: BesteffsNode) -> None:
        unit = self._units[node.node_id] = _Unit(node)
        self._unmirrored += unit.strict is None
        for level in self._levels.values():
            level.through[unit.node_id] = -math.inf
            self._push(level.heap, (-math.inf, unit.node_id))
        self._push(self._spare, (-unit.spare, unit.node_id))

    def discard(self, node_id: str) -> None:
        unit = self._units.pop(node_id)
        self._unmirrored -= unit.strict is None
        self._moved.discard(node_id)
        for level in self._levels.values():
            del level.through[node_id]

    def evicted(self, node_id: str) -> None:
        """A unit evicted a resident: a member's spare may have grown."""
        if node_id in self._units:
            self._moved.add(node_id)

    # -- the decision ------------------------------------------------------

    def refuses(self, obj: StoredObject, now: float) -> bool:
        """True when every member unit would refuse ``obj`` at ``now``.

        False also whenever the floor cannot tell: no member, a policy it
        does not mirror, or a ``now`` off the whole-minute clock or before
        one it has seen (the walk then raises as it always did).
        """
        if self._unmirrored or not self._units or not (
            now >= self._clock and on_exact_grid(now)
        ):
            return False
        self._clock = now
        while obj.size <= self._max_spare():
            # Trust the roomiest unit's room only if the unit has not
            # changed since its spare was read; else read it again.
            unit = self._units[self._spare[0][1]]
            if unit.stamp == _stamp(unit.store):
                return False
            self._refresh(unit, now)
        for node_id in list(self._moved):
            self._refresh(self._units[node_id], now)
        incoming = obj.importance_at(now)
        level = self._levels.pop(incoming, None)
        if level is None:
            if len(self._levels) >= MAX_LEVELS:
                del self._levels[next(iter(self._levels))]
            level = _Level(self._units)
        self._levels[incoming] = level
        return self._full(level, incoming, now) and obj.size > self._max_spare()

    def _full(self, level: _Level, incoming: float, now: float) -> bool:
        """True when every unit's entry for ``level`` is at or after ``now``;
        reads afresh, lowest first, the units whose entry is earlier."""
        heap, through = level.heap, level.through
        while True:
            entry, node_id = heap[0]
            if through.get(node_id) != entry:
                heappop(heap)
                continue
            if entry >= now:
                return True
            unit = self._units[node_id]
            if unit.stamp != _stamp(unit.store):
                self._refresh(unit, now)
            else:
                self._set(level, unit, self._read(unit, incoming, now))
            if through[node_id] < now:
                return False

    def _max_spare(self) -> int:
        heap, units = self._spare, self._units
        while True:
            negative, node_id = heap[0]
            unit = units.get(node_id)
            if unit is None:
                heappop(heap)
            elif unit.spare == -negative:
                return unit.spare
            else:  # the spare shrank since this entry
                heapreplace(heap, (-unit.spare, node_id))

    # -- keeping the entries -------------------------------------------------

    def committed(self, node_id: str, obj: StoredObject, now: float, evictions: int) -> None:
        """Fold in an admission the cluster committed at ``now`` (with
        ``evictions`` residents preempted for it)."""
        unit = self._units[node_id]
        store = unit.store
        stamp = _stamp(store)
        if unit.stamp != stamp - 1 - evictions or unit.strict is None:
            self._refresh(unit, now)  # it also changed behind the cluster's back
            return
        unit.stamp = stamp
        self._moved.discard(node_id)
        index = store.importance_index
        for incoming, level in self._levels.items():
            entry = level.through[node_id]
            if entry >= now:
                end = index.full_through(now, incoming, unit.strict, obj.object_id)
                if end < entry:
                    self._set(level, unit, end)
        self._set_spare(unit, store.free_bytes + index.expired_bytes)

    def _refresh(self, unit: _Unit, now: float) -> None:
        """Read every entry and the spare of ``unit`` afresh."""
        store = unit.store
        store.advance_clock(now, decision=True)
        index = store.importance_index
        if unit.strict is not None:
            for incoming, level in self._levels.items():
                self._set(level, unit, index.full_through(now, incoming, unit.strict))
        self._set_spare(unit, store.free_bytes + index.expired_bytes)
        unit.stamp = _stamp(store)
        self._moved.discard(unit.node_id)

    def _read(self, unit: _Unit, incoming: float, now: float) -> float:
        """The unit's own instant for ``incoming`` at ``now``; reads its spare."""
        store = unit.store
        store.advance_clock(now, decision=True)
        index = store.importance_index
        through = index.full_through(now, incoming, unit.strict)
        self._set_spare(unit, store.free_bytes + index.expired_bytes)
        return through

    def _set(self, level: _Level, unit: _Unit, entry: float) -> None:
        through = level.through
        if through[unit.node_id] != entry:
            through[unit.node_id] = entry
            if self._push(level.heap, (entry, unit.node_id)):
                level.heap[:] = [(value, node_id) for node_id, value in through.items()]
                heapify(level.heap)

    def _set_spare(self, unit: _Unit, spare: int) -> None:
        # Only growth is pushed: a unit's entries never read below its spare,
        # and a shrunk one is corrected when it surfaces.
        grew = spare > unit.spare
        unit.spare = spare
        if grew and self._push(self._spare, (-spare, unit.node_id)):
            self._spare[:] = [(-u.spare, node_id) for node_id, u in self._units.items()]
            heapify(self._spare)

    def _push(self, heap: list, entry: tuple) -> bool:
        """Push ``entry``; True when ``heap`` is due for a rebuild."""
        heappush(heap, entry)
        return len(heap) > _SLACK * (len(self._units) + 1)

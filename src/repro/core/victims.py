"""Grouped lazy victim selection (the admission-planning hot path).

``plan_preemptive_admission`` needs the *greedy prefix* of the paper's
victim ordering — increasing current importance, ties broken by remaining
lifetime, then arrival time, then id — but the prefix is typically a
handful of objects while a full sort evaluates the importance of every
candidate at every probe.  This module exploits structural properties of
temporal importance functions to keep per-plan work near O(victims).

Three merge sources feed a lazy k-way heap:

1. **Groups** — residents sharing the *same* annotation ``L`` have a
   provably static victim order.  ``L`` is monotone non-increasing in
   age, so the older object's current importance is <= the younger's; on
   an exact tie its remaining lifetime is also <=, and the final
   ``(t_arrival, object_id)`` keys break any residual tie toward the
   older object.  Each distinct annotation therefore contributes one
   cursor over its members sorted by ``(t_arrival, object_id)``, and only
   cursor heads ever have their keys evaluated.
2. **Superfamilies** — on the exact integer-minute grid, two-step
   residents sharing only ``(p, t_wane)`` (but *different* ``t_persist``,
   e.g. lectures from different days of the same term) also order
   statically, by absolute expiry ``E = t_arrival + t_persist + t_wane``:
   a waning member's importance is ``p * (E - now) / t_wane``, monotone
   in ``E``; a constant member always sorts after every waning member of
   the family (it entered its wane later, so its ``E`` is larger); and
   remaining lifetimes (``E - now``) tie-break identically.  A whole
   term's worth of per-day annotations collapses into a single cursor.
3. **The expired stream** — the importance index's phase machinery
   already knows exactly which residents are expired at ``now``; they all
   carry the key ``(0.0, 0.0, t_arrival, object_id)``, so an
   arrival-sorted list of them merges with zero key evaluations.

Bit-exactness
-------------

The merge reproduces the naive full sort *bit for bit* under conditions
enforced here:

* Group order needs the annotation's *floating-point* evaluation to be
  monotone in age, not just its real-valued ideal.  The two-step family
  (``TwoStepImportance``, ``FixedLifetimeImportance``,
  ``ConstantImportance``, ``DiracImportance``, and ``ScaledImportance``
  over any of these) computes importance with expressions that are
  monotone under IEEE-754 rounding (subtraction, multiplication and
  division by positive constants preserve order).  Annotations outside
  this verified family are placed in single-object groups, where the
  static order is trivially true and every key is evaluated — exactly the
  naive cost, never an incorrect order.
* Superfamily order relies on *exact* float arithmetic, so membership is
  gated: ``t_arrival`` and the annotation durations must be non-negative
  integer-valued floats below 2**51 (minutes; ~4e9 years).  All sums and
  differences involved are then integers below 2**53 — computed without
  rounding — and the E-order argument holds in floats because it holds in
  the reals.  Queries at a non-integer ``now``, or at a ``now`` earlier
  than some family member's arrival (where the naive age clamp could
  engage), return None and the caller falls back to the sort-based path.
* Head keys must equal what ``StoredObject.importance_at`` /
  ``remaining_lifetime_at`` return.  A group head simply calls those
  methods.  A family head computes ``rem = E - now`` and the wane through
  :func:`~repro.core.importance.linear_wane`, the same function
  ``TwoStepImportance.importance_at`` calls; on the grid ``E - now`` is
  the float ``t_expire - age`` that call chain computes.

A family is also the only home of its *waning* members: they are the
contiguous run ``E - t_wane < now < E``, and :meth:`GroupedResidents.wane_terms`
hands their density terms to the importance index.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush
from typing import Mapping

from repro.core.importance import (
    ConstantImportance,
    DiracImportance,
    FixedLifetimeImportance,
    ImportanceFunction,
    ScaledImportance,
    TwoStepImportance,
    linear_wane,
)
from repro.core.obj import ObjectId, StoredObject
from repro.errors import ReproError

__all__ = ["GroupedResidents"]

#: One merge entry: ``(importance, remaining, t_arrival, object_id,
#: position, source)``.  Object ids are unique, so heap comparisons never
#: reach ``source``.
Entry = tuple[float, float, float, ObjectId, int, object]

#: Component bound for exact integer-grid arithmetic: all sums of up to
#: three components stay below 2**53 and are therefore computed exactly.
_MAX_EXACT_COMPONENT = 2.0**51

#: Bound on a query ``now`` for the same exactness argument.
_MAX_EXACT_NOW = 2.0**52

#: Annotations whose float evaluation is monotone in age (subtraction,
#: multiplication and division by positive constants preserve order), alone
#: or under one :class:`ScaledImportance`: their residents share a group.
_MONOTONE = (TwoStepImportance, FixedLifetimeImportance, ConstantImportance, DiracImportance)


def _on_exact_grid(value: float) -> bool:
    """True when ``value`` is a non-negative integer small enough that all
    sums of up to three such components are exact in float arithmetic.
    (``value`` may be an int — annotation durations are not coerced.)"""
    return 0.0 <= value <= _MAX_EXACT_COMPONENT and value == int(value)


def _statically_ordered(lifetime: ImportanceFunction) -> bool:
    """True when the residents of ``lifetime`` keep a static victim order."""
    if isinstance(lifetime, ScaledImportance):
        lifetime = lifetime.inner
    return isinstance(lifetime, _MONOTONE)


def _family_spec(
    lifetime: ImportanceFunction, t_arrival: float
) -> tuple[tuple[float, float], float] | None:
    """Superfamily placement for one admission, or None.

    Returns ``((p, t_wane), E_abs)`` when the annotation and arrival time
    satisfy the exact integer-grid gate.  A fixed lifetime is a two-step
    function with no wane (``t_wane = 0``): a live member never reaches
    the wane branch, so it shares a family with the two-step residents of
    the same ``p`` and ``t_wane = 0``.
    """
    kind = type(lifetime)
    if kind is TwoStepImportance:
        t_persist = lifetime.t_persist
        t_wane = lifetime.t_wane
        if not (
            _on_exact_grid(t_arrival)
            and _on_exact_grid(t_persist)
            and _on_exact_grid(t_wane)
        ):
            return None
        return (lifetime.p, t_wane), t_arrival + t_persist + t_wane
    if kind is FixedLifetimeImportance:
        expire_after = lifetime.expire_after
        if not (_on_exact_grid(t_arrival) and _on_exact_grid(expire_after)):
            return None
        return (lifetime.p, 0.0), t_arrival + expire_after
    return None


class _Group:
    """One run of residents sharing an annotation, statically ordered."""

    __slots__ = ("members", "live_start")

    def __init__(self) -> None:
        #: Sorted ascending by ``(t_arrival, object_id)`` — the static
        #: within-group victim order.
        self.members: list[tuple[float, ObjectId, StoredObject]] = []
        #: Index of the first non-expired member (expired members form a
        #: prefix of the arrival order: the annotation is shared, so
        #: expiry instants are ordered exactly like arrivals).  Advanced
        #: monotonically at query time; reset when time regresses.
        self.live_start = 0

    def insert(self, obj: StoredObject) -> None:
        probe = (obj.t_arrival, obj.object_id)
        members = self.members
        # Admissions arrive in (mostly) increasing time: append fast path.
        if not members or (members[-1][0], members[-1][1]) < probe:
            members.append((obj.t_arrival, obj.object_id, obj))
            return
        i = bisect_left(members, probe)
        members.insert(i, (obj.t_arrival, obj.object_id, obj))
        if i < self.live_start:
            # Conservative: the newcomer may be live, so the expired
            # prefix can no longer be assumed past its slot.
            self.live_start = i

    def remove(self, t_arrival: float, object_id: ObjectId) -> None:
        members = self.members
        i = bisect_left(members, (t_arrival, object_id))
        if i >= len(members) or members[i][1] != object_id:
            raise ReproError(f"{object_id!r} is not a member of its victim group")
        del members[i]
        if i < self.live_start:
            self.live_start -= 1

    # -- merge-source protocol (pops only) ---------------------------------

    def obj_at(self, pos: int) -> StoredObject:
        return self.members[pos][2]

    def entry_at(self, pos: int, now: float) -> Entry | None:
        members = self.members
        if pos >= len(members):
            return None
        t_arrival, oid, obj = members[pos]
        return (obj.importance_at(now), obj.remaining_lifetime_at(now), t_arrival, oid, pos, self)


class _Family:
    """Residents sharing ``(p, t_wane)`` on the exact integer grid.

    Members are sorted by ``(E_abs, t_arrival, object_id)`` — the static
    victim order for live members.  Expired members (``E_abs <= now``)
    form a prefix found by bisection; they are emitted by the expired
    stream instead.  The waning members (``E_abs - t_wane < now < E_abs``)
    are the contiguous run after it: this is the only place a waning
    family member lives, and the importance index reads its density terms
    from here (:meth:`GroupedResidents.wane_terms`).  ``expiries`` and
    ``sizes`` are contiguous ``array('d')`` columns parallel to
    ``members``, so a probe streams through them instead of chasing two
    boxed floats per resident across the heap (``float * int`` converts
    the int exactly as ``float()`` does, so a size held as a double
    multiplies to the same bits).
    """

    __slots__ = ("p", "t_wane", "members", "expiries", "sizes")

    def __init__(self, p: float, t_wane: float) -> None:
        self.p = p
        self.t_wane = t_wane
        #: ``(E_abs, t_arrival, object_id, obj)``.
        self.members: list[tuple[float, float, ObjectId, StoredObject]] = []
        self.expiries = array("d")
        self.sizes = array("d")

    def insert(self, e_abs: float, obj: StoredObject) -> None:
        probe = (e_abs, obj.t_arrival, obj.object_id)
        members = self.members
        # Admissions arrive in (mostly) increasing expiry: append fast path.
        if not members or members[-1][:3] < probe:
            i = len(members)
        else:
            i = bisect_left(members, probe)
        members.insert(i, (*probe, obj))
        self.expiries.insert(i, e_abs)
        self.sizes.insert(i, obj.size)

    def remove(self, e_abs: float, t_arrival: float, object_id: ObjectId) -> None:
        members = self.members
        i = bisect_left(members, (e_abs, t_arrival, object_id))
        if i >= len(members) or members[i][2] != object_id:
            raise ReproError(f"{object_id!r} is not a member of its victim family")
        del members[i]
        del self.expiries[i]
        del self.sizes[i]

    def waning(self, now: float) -> tuple[int, int]:
        """``(lo, hi)``: the members strictly inside their wane window.

        ``E_abs`` and ``E_abs - t_wane`` (the end of persistence) are exact
        integers, and a member's age ``now - t_arrival`` is exact for any
        ``now`` below 2**53 past its arrival, so these two comparisons are
        exactly the index's phase predicates, on or off the grid.
        """
        expiries = self.expiries
        lo = bisect_right(expiries, now)
        t_wane = self.t_wane
        return lo, bisect_left(expiries, now, lo, key=lambda e_abs: e_abs - t_wane)

    # -- merge-source protocol ---------------------------------------------

    def obj_at(self, pos: int) -> StoredObject:
        return self.members[pos][3]

    def entry_at(self, pos: int, now: float) -> Entry | None:
        members = self.members
        if pos >= len(members):
            return None
        e_abs, t_arrival, oid, _obj = members[pos]
        # Exact integer arithmetic (see the module docstring): the member
        # is live, ``rem = E_abs - now`` equals ``t_expire - age`` and is
        # > 0, and ``age <= t_persist`` iff ``rem >= t_wane``.
        rem = e_abs - now
        p = self.p
        t_wane = self.t_wane
        imp = p if rem >= t_wane else linear_wane(p, rem, t_wane)
        return (imp, rem, t_arrival, oid, pos, self)


class _ExpiredStream:
    """Arrival-ordered expired residents; keys are always (0.0, 0.0)."""

    __slots__ = ("items",)

    def __init__(self, items: list[tuple[float, ObjectId, StoredObject]]) -> None:
        self.items = items

    def obj_at(self, pos: int) -> StoredObject:
        return self.items[pos][2]

    def entry_at(self, pos: int, now: float) -> Entry | None:
        items = self.items
        if pos >= len(items):
            return None
        t_arrival, oid, _obj = items[pos]
        return (0.0, 0.0, t_arrival, oid, pos, self)


class GroupedResidents:
    """Residents partitioned into statically ordered merge sources.

    Mirrors a store's resident set (one :meth:`add` per admission, one
    :meth:`discard` per eviction) and answers the planning query
    :meth:`greedy_victims` without sorting or scanning every resident.
    """

    __slots__ = ("_groups", "_families", "_membership", "_family_max_arrival")

    def __init__(self) -> None:
        self._groups: dict[object, _Group] = {}
        self._families: dict[tuple, _Family] = {}
        #: object id -> ("g", key, t_arrival) | ("f", key, E_abs, t_arrival).
        self._membership: dict[ObjectId, tuple] = {}
        #: Latest arrival among (ever-added) family members: queries before
        #: it would need the naive age clamp, which family evaluation
        #: omits, so they fall back.  Never decreases — conservative.
        self._family_max_arrival = -math.inf

    def __len__(self) -> int:
        return len(self._membership)

    @property
    def group_count(self) -> int:
        return len(self._groups)

    @property
    def family_count(self) -> int:
        return len(self._families)

    def add(self, obj: StoredObject) -> None:
        oid = obj.object_id
        if oid in self._membership:
            raise ReproError(f"{oid!r} is already grouped")
        lifetime = obj.lifetime
        spec = _family_spec(lifetime, obj.t_arrival)
        if spec is not None:
            key, e_abs = spec
            family = self._families.get(key)
            if family is None:
                family = self._families[key] = _Family(*key)
            family.insert(e_abs, obj)
            self._membership[oid] = ("f", key, e_abs, obj.t_arrival)
            if obj.t_arrival > self._family_max_arrival:
                self._family_max_arrival = obj.t_arrival
            return
        # Unverified annotations get single-object groups: the static-order
        # lemma holds trivially.
        gkey: object = lifetime if _statically_ordered(lifetime) else oid
        group = self._groups.get(gkey)
        if group is None:
            group = self._groups[gkey] = _Group()
        group.insert(obj)
        self._membership[oid] = ("g", gkey, obj.t_arrival)

    def in_family(self, object_id: ObjectId) -> bool:
        """True when ``object_id`` belongs to an integer-grid superfamily."""
        return self._membership[object_id][0] == "f"

    def waning_members(self, now: float) -> list[StoredObject]:
        """Every family member strictly inside its wane window at ``now``."""
        out: list[StoredObject] = []
        for family in self._families.values():
            lo, hi = family.waning(now)
            out.extend([m[3] for m in family.members[lo:hi]])
        return out

    def wane_terms(self, now: float) -> list[float]:
        """``importance * size`` of every waning family member at ``now``.

        Each term is bit-identical to ``obj.importance_at(now) * obj.size``
        (see :meth:`_Family.waning` and :func:`linear_wane`), so the
        importance index feeds them to its exact sum unchanged.
        """
        terms: list[float] = []
        for family in self._families.values():
            p = family.p
            t_wane = family.t_wane
            lo, hi = family.waning(now)
            terms.extend([
                linear_wane(p, e_abs - now, t_wane) * size
                for e_abs, size in zip(family.expiries[lo:hi], family.sizes[lo:hi])
            ])
        return terms

    def discard(self, object_id: ObjectId) -> None:
        entry = self._membership.pop(object_id, None)
        if entry is None:
            return
        if entry[0] == "f":
            _tag, key, e_abs, t_arrival = entry
            family = self._families[key]
            family.remove(e_abs, t_arrival, object_id)
            if not family.members:
                del self._families[key]
            return
        _tag, gkey, t_arrival = entry
        group = self._groups[gkey]
        group.remove(t_arrival, object_id)
        if not group.members:
            del self._groups[gkey]

    def check(self) -> None:
        """Verify every source's order and the membership map (test helper)."""
        members = 0
        for key, family in self._families.items():
            entries = family.members
            if not len(entries) == len(family.expiries) == len(family.sizes):
                raise ReproError(f"family {key!r} columns are ragged")
            for (e_abs, t_arrival, oid, obj), e_col, size in zip(
                entries, family.expiries, family.sizes
            ):
                if (_family_spec(obj.lifetime, obj.t_arrival), e_col, t_arrival, oid, size) != (
                    (key, e_abs), e_abs, obj.t_arrival, obj.object_id, obj.size
                ):
                    raise ReproError(f"{oid!r} has stale family values")
                if self._membership.get(oid) != ("f", key, e_abs, t_arrival):
                    raise ReproError(f"{oid!r} has a stale membership entry")
            if any(a[:3] >= b[:3] for a, b in zip(entries, entries[1:])):
                raise ReproError(f"family {key!r} is out of order")
            members += len(entries)
        for gkey, group in self._groups.items():
            entries = group.members
            for t_arrival, oid, obj in entries:
                if self._membership.get(oid) != ("g", gkey, t_arrival):
                    raise ReproError(f"{oid!r} has a stale membership entry")
            if any(a[:2] >= b[:2] for a, b in zip(entries, entries[1:])):
                raise ReproError(f"group {gkey!r} is out of order")
            members += len(entries)
        if members != len(self._membership):
            raise ReproError("membership map and merge sources are ragged")

    def reset_cursors(self) -> None:
        """Forget monotone-time assumptions after a clock regression."""
        for group in self._groups.values():
            group.live_start = 0

    def _live_heads(self, now: float, phases: Mapping[ObjectId, str]) -> list[Entry] | None:
        """The merge head of every source with a live member at ``now``;
        None when superfamily exactness cannot be guaranteed there (off the
        integer grid, or before a family member's arrival)."""
        if self._families and not (
            -_MAX_EXACT_NOW <= now <= _MAX_EXACT_NOW
            and now.is_integer()
            and now >= self._family_max_arrival
        ):
            return None
        heads: list[Entry] = []
        expired_phase = "expired"
        for group in self._groups.values():
            members = group.members
            n = len(members)
            i = group.live_start
            while i < n and phases.get(members[i][1]) == expired_phase:
                i += 1
            group.live_start = i
            if i < n:
                heads.append(group.entry_at(i, now))
        for family in self._families.values():
            entry = family.entry_at(bisect_right(family.expiries, now), now)
            if entry is not None:
                heads.append(entry)
        return heads

    def greedy_victims(
        self,
        now: float,
        needed: int,
        *,
        phases: Mapping[ObjectId, str],
        expired: list[tuple[float, ObjectId, StoredObject]],
    ) -> tuple[list[StoredObject], float, int] | None:
        """The naive sort's greedy victim prefix for ``needed`` bytes.

        ``phases`` and ``expired`` come from the importance index *after*
        ``advance(now)``: the phase of every tracked object, and the
        arrival-sorted expired residents.  Returns ``(victims,
        highest_importance, freed_bytes)`` with victims in exact global
        victim order and ``highest`` equal to ``max(importance_at(now))``
        over them (0.0 when empty); ``freed < needed`` signals the pool
        ran dry.  Returns None when superfamily exactness cannot be
        guaranteed at this ``now`` — the caller must fall back to the
        sort-based plan.
        """
        now = float(now)
        heap = self._live_heads(now, phases)
        if heap is None:
            return None
        if expired:
            t_arrival, oid, _obj = expired[0]
            heap.append((0.0, 0.0, t_arrival, oid, 0, _ExpiredStream(expired)))
        heapify(heap)
        victims: list[StoredObject] = []
        freed = 0
        highest = 0.0
        while heap and freed < needed:
            imp, _rem, _t, _oid, pos, source = heappop(heap)
            obj = source.obj_at(pos)
            victims.append(obj)
            freed += obj.size
            if imp > highest:
                highest = imp
            nxt = source.entry_at(pos + 1, now)
            if nxt is not None:
                heappush(heap, nxt)
        return victims, highest, freed

    def preempted_floor(
        self, now: float, deficit: int, incoming: float, strict: bool,
        *, phases: Mapping[ObjectId, str],
    ) -> tuple[bool, float] | None:
        """Score, without collecting it, the greedy prefix of the *live*
        residents for the ``deficit > 0`` bytes the expired ones leave
        uncovered (their keys ``(0.0, 0.0, ...)`` sort first, so this
        prefix's highest importance is the whole prefix's).

        ``(True, highest)`` as :meth:`greedy_victims` would report it, or
        ``(False, importance)`` at the first victim that blocks
        ``incoming`` — victims pop in ascending importance, so the prefix
        maximum blocks too.  None when the merge declines or the pool runs
        dry: the caller plans in full.  See docs/performance.md.
        """
        now = float(now)
        heap = self._live_heads(now, phases)
        if heap is None:
            return None
        heapify(heap)
        freed = 0
        highest = 0.0
        while heap:
            imp, _rem, _t, _oid, pos, source = heappop(heap)
            if imp > 0.0 and (imp >= incoming if strict else imp > incoming):
                return False, imp
            freed += source.obj_at(pos).size
            if imp > highest:
                highest = imp
            if freed >= deficit:
                return True, highest
            nxt = source.entry_at(pos + 1, now)
            if nxt is not None:
                heappush(heap, nxt)
        return None

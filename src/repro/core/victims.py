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
  integer-valued floats below 2**51 (minutes; ~4e9 years).  A query needs
  the same of ``now``, and no member may arrive after it (the naive age
  clamp would engage); the storage unit's clock contract guarantees both
  for every decision (whole minutes in ``[0, 2**51]``, never backwards,
  arrivals no later than their offer).  All sums and differences involved
  are then integers below 2**53 — computed without rounding — and the
  E-order argument holds in floats because it holds in the reals.
* Head keys must equal what ``StoredObject.importance_at`` /
  ``remaining_lifetime_at`` return.  A group head simply calls those
  methods.  A family head computes ``rem = E - now`` and the wane through
  :func:`~repro.core.importance.linear_wane`, the same function
  ``TwoStepImportance.importance_at`` calls; on the grid ``E - now`` is
  the float ``t_expire - age`` that call chain computes.

A family is also the only home of its *waning* members: they are the
contiguous run ``E - t_wane < now < E``, and :meth:`GroupedResidents.wane_terms`
hands their density terms to the importance index.  A placement probe
refuses without a merge while every live resident blocks the incoming
importance, up to an instant cached per level
(:meth:`~GroupedResidents.full_through`), which the cluster also reads to
refuse a hopeless offer without walking (:mod:`repro.besteffs.floor`).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.index import Resident

__all__ = ["GroupedResidents", "on_exact_grid"]

#: One merge entry: ``(importance, remaining, t_arrival, object_id,
#: position, source)``.  Object ids are unique, so heap comparisons never
#: reach ``source``.
Entry = tuple[float, float, float, ObjectId, int, object]

#: A record's sort key within its source (what the sources bisect on).
_SORT_KEY = attrgetter("key")

#: Component bound for exact integer-grid arithmetic: all sums of up to
#: three components stay below 2**53 and are therefore computed exactly.
_MAX_EXACT_COMPONENT = 2.0**51

#: Annotations whose float evaluation is monotone in age (subtraction,
#: multiplication and division by positive constants preserve order), alone
#: or under one :class:`ScaledImportance`: their residents share a group.
_MONOTONE = (TwoStepImportance, FixedLifetimeImportance, ConstantImportance, DiracImportance)


def on_exact_grid(value: float) -> bool:
    """True when ``value`` is a non-negative integer small enough that all
    sums of up to three such components are exact in float arithmetic.
    (``value`` may be an int — annotation durations are not coerced.)  The
    storage unit decides only at such times."""
    return 0.0 <= value <= _MAX_EXACT_COMPONENT and value == int(value)


def _blocks(importance: float, level: float, strict: bool) -> bool:
    """True when a victim of ``importance`` makes the unit full for ``level``."""
    return importance > 0.0 and (importance >= level if strict else importance > level)


def _stable_end(t_arrival: float, stable_until: float) -> float:
    """The last ``t`` with ``t - t_arrival <= stable_until`` in floats."""
    end = t_arrival + stable_until
    while end - t_arrival > stable_until:
        end = math.nextafter(end, -math.inf)
    return end


@lru_cache(maxsize=4096)
def _blocking_rem(p: float, t_wane: float, level: float, strict: bool) -> float:
    """``r*``: a live ``(p, t_wane)`` family member blocks ``level`` iff
    ``E - now >= r*`` (by :meth:`_Family.entry_at`'s arithmetic)."""
    if not _blocks(p, level, strict):
        return math.inf
    lo, hi = 1, max(int(t_wane), 1)  # remaining >= t_wane is the stable p
    while lo < hi:
        mid = (lo + hi) // 2
        if _blocks(linear_wane(p, float(mid), t_wane), level, strict):
            hi = mid
        else:
            lo = mid + 1
    return float(lo)


def _blocking_end(rec: Resident, level: float, strict: bool) -> float:
    """The last instant at which ``rec``, live, blocks ``level``; ``-inf``
    if it never does.  A family member: ``E - r*``.  A group member: its
    stable end, stepped down past its expiry (a fixed lifetime expires at
    the end of its stable prefix)."""
    source = rec.source
    if type(source) is _Family:
        return rec.key[0] - _blocking_rem(source.p, source.t_wane, level, strict)
    obj = rec.obj
    lifetime = obj.lifetime
    if not _blocks(lifetime.initial_importance, level, strict):
        return -math.inf
    end = _stable_end(obj.t_arrival, lifetime.stable_until)
    while obj.is_expired_at(end):
        end = math.nextafter(end, -math.inf)
    return end


def _file(members: list[Resident], rec: Resident, source: object, key: tuple) -> int:
    """File ``rec`` under ``source`` at ``key`` in order; return its position."""
    rec.source = source
    rec.key = key
    # Admissions arrive in (mostly) increasing key order: append fast path.
    if not members or members[-1].key < key:
        i = len(members)
    else:
        i = bisect_left(members, key, key=_SORT_KEY)
    members.insert(i, rec)
    return i


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
            on_exact_grid(t_arrival)
            and on_exact_grid(t_persist)
            and on_exact_grid(t_wane)
        ):
            return None
        return (lifetime.p, t_wane), t_arrival + t_persist + t_wane
    if kind is FixedLifetimeImportance:
        expire_after = lifetime.expire_after
        if not (on_exact_grid(t_arrival) and on_exact_grid(expire_after)):
            return None
        return (lifetime.p, 0.0), t_arrival + expire_after
    return None


class _Group:
    """One run of residents sharing an annotation, statically ordered."""

    __slots__ = ("gkey", "members", "live_start")

    def __init__(self, gkey: object) -> None:
        self.gkey = gkey  # the annotation (unverified: the object id)
        #: Records sorted by their key ``(t_arrival, object_id)`` — the
        #: static within-group victim order.
        self.members: list[Resident] = []
        #: Index of the first non-expired member (expired members form a
        #: prefix of the arrival order: the annotation is shared, so
        #: expiry instants are ordered exactly like arrivals).  Advanced
        #: monotonically at query time (time never goes back).
        self.live_start = 0

    def insert(self, rec: Resident) -> None:
        i = _file(self.members, rec, self, (rec.obj.t_arrival, rec.obj.object_id))
        if i < self.live_start:
            # Conservative: the newcomer may be live, so the expired
            # prefix can no longer be assumed past its slot.
            self.live_start = i

    def remove(self, rec: Resident) -> None:
        members = self.members
        i = bisect_left(members, rec.key, key=_SORT_KEY)
        if i >= len(members) or members[i] is not rec:
            raise ReproError(f"{rec.key[1]!r} is not a member of its victim group")
        del members[i]
        if i < self.live_start:
            self.live_start -= 1

    def first_live(self) -> int:
        """Advance ``live_start`` past the expired prefix and return it."""
        members, n, i = self.members, len(self.members), self.live_start
        while i < n and members[i].phase == "expired":
            i += 1
        self.live_start = i
        return i

    # -- merge-source protocol (pops only) ---------------------------------

    def obj_at(self, pos: int) -> StoredObject:
        return self.members[pos].obj

    def entry_at(self, pos: int, now: float) -> Entry | None:
        members = self.members
        if pos >= len(members):
            return None
        rec = members[pos]
        obj = rec.obj
        t_arrival, oid = rec.key
        return (obj.importance_at(now), obj.remaining_lifetime_at(now), t_arrival, oid, pos, self)


class _Family:
    """Residents sharing ``(p, t_wane)`` on the exact integer grid.

    Member records are sorted by their key ``(E_abs, t_arrival,
    object_id)`` — the static victim order for live members.  Expired
    members (``E_abs <= now``) form a prefix found by bisection; they are
    emitted by the expired stream instead.  The waning members (``E_abs - t_wane < now < E_abs``)
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
        self.members: list[Resident] = []
        self.expiries = array("d")
        self.sizes = array("d")

    def insert(self, e_abs: float, rec: Resident) -> None:
        obj = rec.obj
        i = _file(self.members, rec, self, (e_abs, obj.t_arrival, obj.object_id))
        self.expiries.insert(i, e_abs)
        self.sizes.insert(i, obj.size)

    def remove(self, rec: Resident) -> None:
        # Bisect the expiry column to the record's run of equal ``E``, then
        # find the record itself there (an identity scan, no key calls).
        try:
            i = self.members.index(rec, bisect_left(self.expiries, rec.key[0]))
        except ValueError:
            raise ReproError(f"{rec.key[2]!r} is not a member of its victim family") from None
        del self.members[i]
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
        return self.members[pos].obj

    def entry_at(self, pos: int, now: float) -> Entry | None:
        members = self.members
        if pos >= len(members):
            return None
        e_abs, t_arrival, oid = members[pos].key
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

    def __init__(self, items: list[tuple[float, ObjectId, Resident]]) -> None:
        self.items = items

    def obj_at(self, pos: int) -> StoredObject:
        return self.items[pos][2].obj

    def entry_at(self, pos: int, now: float) -> Entry | None:
        items = self.items
        if pos >= len(items):
            return None
        t_arrival, oid, _rec = items[pos]
        return (0.0, 0.0, t_arrival, oid, pos, self)


class GroupedResidents:
    """Residents partitioned into statically ordered merge sources.

    Mirrors a store's resident set (one :meth:`add` per admission, one
    :meth:`discard` per eviction) and answers the planning query
    :meth:`greedy_victims` without sorting or scanning every resident.
    It keeps no map of its own from object ids: :meth:`add` files a
    :class:`~repro.core.index.Resident` record into one source and writes
    that source and the record's sort key onto the record, which is all
    :meth:`discard` needs to find it again.
    """

    __slots__ = ("_groups", "_families", "_floors")

    def __init__(self) -> None:
        self._groups: dict[object, _Group] = {}
        self._families: dict[tuple, _Family] = {}
        #: ``(level, strict)`` -> :meth:`full_through`, until the next add
        #: or discard (time only moves forward).
        self._floors: dict[tuple[float, bool], float] = {}

    def __len__(self) -> int:
        return sum(len(source.members) for source in self._sources())

    def _sources(self) -> list[_Group | _Family]:
        return [*self._groups.values(), *self._families.values()]

    @property
    def group_count(self) -> int:
        return len(self._groups)

    @property
    def family_count(self) -> int:
        return len(self._families)

    def add(self, rec: Resident) -> None:
        """File a freshly admitted resident's record into its source."""
        self._floors.clear()
        obj = rec.obj
        lifetime = obj.lifetime
        spec = _family_spec(lifetime, obj.t_arrival)
        if spec is not None:
            key, e_abs = spec
            family = self._families.get(key)
            if family is None:
                family = self._families[key] = _Family(*key)
            family.insert(e_abs, rec)
            return
        # Unverified annotations get single-object groups: the static-order
        # lemma holds trivially.
        gkey: object = lifetime if _statically_ordered(lifetime) else obj.object_id
        group = self._groups.get(gkey)
        if group is None:
            group = self._groups[gkey] = _Group(gkey)
        group.insert(rec)

    @staticmethod
    def in_family(rec: Resident) -> bool:
        """True when ``rec`` is filed in an integer-grid superfamily."""
        return type(rec.source) is _Family

    def waning_members(self, now: float) -> list[StoredObject]:
        """Every family member strictly inside its wane window at ``now``."""
        out: list[StoredObject] = []
        for family in self._families.values():
            lo, hi = family.waning(now)
            out.extend([rec.obj for rec in family.members[lo:hi]])
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

    def discard(self, rec: Resident) -> None:
        """Take a leaving resident's record out of its source."""
        self._floors.clear()
        source = rec.source
        source.remove(rec)
        if not source.members:
            if type(source) is _Family:
                del self._families[source.p, source.t_wane]
            else:
                del self._groups[source.gkey]

    def check(self) -> list[Resident]:
        """Verify every source's order and its records' source and sort key;
        return the records of every source (test helper)."""
        for key, family in self._families.items():
            if not len(family.members) == len(family.expiries) == len(family.sizes):
                raise ReproError(f"family {key!r} columns are ragged")
            for rec, e_col, size in zip(family.members, family.expiries, family.sizes):
                obj = rec.obj
                if (_family_spec(obj.lifetime, obj.t_arrival), e_col, size) != (
                    (key, rec.key[0]), rec.key[0], obj.size
                ):
                    raise ReproError(f"{obj.object_id!r} has stale family values")
        records: list[Resident] = []
        for source in self._sources():
            for rec in source.members:
                obj = rec.obj
                if rec.source is not source or rec.key[-2:] != (obj.t_arrival, obj.object_id):
                    raise ReproError(f"{obj.object_id!r} has a stale sort key")
            keys = [rec.key for rec in source.members]
            if any(a >= b for a, b in zip(keys, keys[1:])):
                raise ReproError(f"victim source {source!r} is out of order")
            records.extend(source.members)
        return records

    def _live_heads(self, now: float) -> list[Entry]:
        """The merge head of every source with a live member at ``now``."""
        heads: list[Entry] = []
        for group in self._groups.values():
            i = group.first_live()
            if i < len(group.members):
                heads.append(group.entry_at(i, now))
        for family in self._families.values():
            entry = family.entry_at(bisect_right(family.expiries, now), now)
            if entry is not None:
                heads.append(entry)
        return heads

    def _blocked_through(self, now: float, level: float, strict: bool) -> float:
        """The last instant at which every resident live at ``now`` blocks
        ``level``: the earliest :func:`_blocking_end` among the sources'
        first live members (within a source it only grows down the
        order); ``-inf`` if one never blocks."""
        through = math.inf
        for group in self._groups.values():
            i = group.first_live()
            if i < len(group.members):
                through = min(through, _blocking_end(group.members[i], level, strict))
        for family in self._families.values():
            head = bisect_right(family.expiries, now)
            if head < len(family.members):
                through = min(through, _blocking_end(family.members[head], level, strict))
        return through

    def full_through(
        self, now: float, level: float, strict: bool, rec: Resident | None = None
    ) -> float:
        """The unit's full-for-importance instant for ``level``: through it,
        every resident live at ``now`` stays live and blocks ``level``, so
        the first live victim of any plan blocks too.  Cached per ``(level,
        strict)`` until the next :meth:`add` or :meth:`discard` (time only
        moves forward, which only lengthens it).  With ``rec``, that one
        resident's own instant, which is how a holder of the unit's instant
        folds in an admission (a discard can only lengthen it).  ``now`` is
        a decision time after the index's ``advance(now)``."""
        if rec is not None:
            return _blocking_end(rec, level, strict)
        key = (level, strict)
        through = self._floors.get(key)
        if through is None:
            through = self._floors[key] = self._blocked_through(now, level, strict)
        return through

    def greedy_victims(
        self,
        now: float,
        needed: int,
        *,
        expired: list[tuple[float, ObjectId, Resident]],
    ) -> tuple[list[StoredObject], float, int]:
        """The naive sort's greedy victim prefix for ``needed`` bytes.

        Call it after the importance index's ``advance(now)``, so every
        record's ``phase`` is current, at a whole-minute ``now`` no
        earlier than any member's arrival (the unit's decision clock);
        ``expired`` is the index's arrival-sorted stream of expired
        residents.  Returns ``(victims, highest_importance, freed_bytes)``
        with victims in exact global victim order and ``highest`` equal to
        ``max(importance_at(now))`` over them (0.0 when empty);
        ``freed < needed`` signals the pool ran dry.
        """
        heap = self._live_heads(now)
        if expired:
            t_arrival, oid, _rec = expired[0]
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
        self, now: float, deficit: int, incoming: float, strict: bool
    ) -> tuple[bool, float] | None:
        """Score, without collecting it, the greedy prefix of the *live*
        residents for the ``deficit > 0`` bytes the expired ones leave
        uncovered (their keys ``(0.0, 0.0, ...)`` sort first, so this
        prefix's highest importance is the whole prefix's).

        ``(True, highest)`` as :meth:`greedy_victims` would report it, or
        ``(False, importance)`` at the first victim that blocks
        ``incoming`` — victims pop in ascending importance, so the prefix
        maximum blocks too.  While every live resident blocks, so does the
        first victim: the cached floor answers ``(False, incoming)``, a lower
        bound on it, without the merge.  None when the pool runs dry: the
        caller plans in full.  ``now`` is a decision time, as for
        :meth:`greedy_victims`.  See docs/performance.md.
        """
        if now <= self.full_through(now, incoming, strict):
            return False, incoming
        return self._merge_floor(now, deficit, incoming, strict)

    def _merge_floor(
        self, now: float, deficit: int, incoming: float, strict: bool
    ) -> tuple[bool, float] | None:
        """:meth:`preempted_floor` by folding the merge heads."""
        heap = self._live_heads(now)
        heapify(heap)
        freed = 0
        highest = 0.0
        while heap:
            imp, _rem, _t, _oid, pos, source = heappop(heap)
            if _blocks(imp, incoming, strict):
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

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
  ``remaining_lifetime_at`` return.  The specialised evaluators below
  replicate those call chains' float operations in the same order; the
  generic fallback simply calls the methods.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Callable, Mapping

from repro.core.importance import (
    ConstantImportance,
    DiracImportance,
    FixedLifetimeImportance,
    ImportanceFunction,
    ScaledImportance,
    TwoStepImportance,
)
from repro.core.obj import ObjectId, StoredObject
from repro.errors import ReproError

__all__ = ["GroupedResidents", "key_evaluator"]

#: ``(object, now) -> (importance, remaining_lifetime)`` with float results
#: bit-identical to the layered ``StoredObject`` accessors.
KeyEval = Callable[[StoredObject, float], tuple[float, float]]

#: One merge entry: ``(importance, remaining, t_arrival, object_id,
#: position, source)``.  Object ids are unique, so heap comparisons never
#: reach ``source``.
Entry = tuple[float, float, float, ObjectId, int, object]

#: Component bound for exact integer-grid arithmetic: all sums of up to
#: three components stay below 2**53 and are therefore computed exactly.
_MAX_EXACT_COMPONENT = 2.0**51

#: Bound on a query ``now`` for the same exactness argument.
_MAX_EXACT_NOW = 2.0**52

_E_OF = itemgetter(0)


def _on_exact_grid(value: float) -> bool:
    """True when ``value`` is a non-negative integer small enough that all
    sums of up to three such components are exact in float arithmetic.
    (``value`` may be an int — annotation durations are not coerced.)"""
    return 0.0 <= value <= _MAX_EXACT_COMPONENT and value == int(value)


def _generic_eval(obj: StoredObject, now: float) -> tuple[float, float]:
    return obj.importance_at(now), obj.remaining_lifetime_at(now)


def _base_evaluator(fn: ImportanceFunction) -> KeyEval | None:
    """Specialised evaluator for one unscaled annotation, or None."""
    if isinstance(fn, TwoStepImportance):
        p = fn.p
        t_persist = fn.t_persist
        t_wane = fn.t_wane
        expire = fn.t_expire

        def _two_step(obj: StoredObject, now: float) -> tuple[float, float]:
            age = now - obj.t_arrival
            if age < 0.0:
                age = 0.0
            if age >= expire:
                return 0.0, 0.0
            if age <= t_persist:
                imp = p
            else:
                imp = p * (expire - age) / t_wane
            rem = expire - age
            return imp, (rem if rem > 0.0 else 0.0)

        return _two_step
    if isinstance(fn, FixedLifetimeImportance):
        p = fn.p
        expire = fn.expire_after

        def _fixed(obj: StoredObject, now: float) -> tuple[float, float]:
            age = now - obj.t_arrival
            if age < 0.0:
                age = 0.0
            if age >= expire:
                return 0.0, 0.0
            rem = expire - age
            return p, (rem if rem > 0.0 else 0.0)

        return _fixed
    if isinstance(fn, ConstantImportance):
        p = fn.p

        def _constant(obj: StoredObject, now: float) -> tuple[float, float]:
            return p, math.inf

        return _constant
    if isinstance(fn, DiracImportance):

        def _dirac(obj: StoredObject, now: float) -> tuple[float, float]:
            return 0.0, 0.0

        return _dirac
    return None


def key_evaluator(lifetime: ImportanceFunction) -> KeyEval | None:
    """A bit-exact fast ``(importance, remaining)`` evaluator, or None.

    None means the annotation is outside the verified-monotone family and
    must be evaluated through the generic accessors in a single-object
    group.
    """
    if isinstance(lifetime, ScaledImportance):
        base = _base_evaluator(lifetime.inner)
        if base is None:
            return None
        factor = lifetime.factor

        def _scaled(obj: StoredObject, now: float) -> tuple[float, float]:
            imp, rem = base(obj, now)
            # Matches ScaledImportance.importance_at's single multiply;
            # remaining lifetime only depends on t_expire, which scaling
            # preserves.
            return factor * imp, rem

        return _scaled
    return _base_evaluator(lifetime)


def _family_spec(
    lifetime: ImportanceFunction, t_arrival: float
) -> tuple[tuple, float, float, float] | None:
    """Superfamily placement for one admission, or None.

    Returns ``(family_key, E_abs, t_persist, expire)`` when the annotation
    and arrival time satisfy the exact integer-grid gate; ``expire`` is
    the age at which the object expires (``lifetime.t_expire``) and
    ``t_persist`` the age up to which importance is constant.
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
        return (
            ("two-step", lifetime.p, t_wane),
            t_arrival + t_persist + t_wane,
            t_persist,
            lifetime.t_expire,
        )
    if kind is FixedLifetimeImportance:
        expire_after = lifetime.expire_after
        if not (_on_exact_grid(t_arrival) and _on_exact_grid(expire_after)):
            return None
        # A live fixed-lifetime member never reaches the wane branch
        # (t_persist == expire), so t_wane is irrelevant to its keys.
        return (
            ("fixed", lifetime.p),
            t_arrival + expire_after,
            expire_after,
            expire_after,
        )
    return None


class _Group:
    """One run of residents sharing an annotation, statically ordered."""

    __slots__ = ("eval", "members", "live_start")

    def __init__(self, evaluator: KeyEval) -> None:
        self.eval = evaluator
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
        imp, rem = self.eval(obj, now)
        return (imp, rem, t_arrival, oid, pos, self)


class _Family:
    """Residents sharing ``(p, t_wane)`` on the exact integer grid.

    Members are sorted by ``(E_abs, t_arrival, object_id)`` — the static
    victim order for live members.  Expired members (``E_abs <= now``)
    form a prefix found by bisection; they are emitted by the expired
    stream instead.
    """

    __slots__ = ("p", "t_wane", "members")

    def __init__(self, p: float, t_wane: float) -> None:
        self.p = p
        self.t_wane = t_wane
        #: ``(E_abs, t_arrival, object_id, t_persist, expire, obj)``.
        self.members: list[tuple[float, float, ObjectId, float, float, StoredObject]] = []

    def insert(self, e_abs: float, t_persist: float, expire: float, obj: StoredObject) -> None:
        probe = (e_abs, obj.t_arrival, obj.object_id)
        members = self.members
        entry = (e_abs, obj.t_arrival, obj.object_id, t_persist, expire, obj)
        if not members or (members[-1][0], members[-1][1], members[-1][2]) < probe:
            members.append(entry)
            return
        members.insert(bisect_left(members, probe), entry)

    def remove(self, e_abs: float, t_arrival: float, object_id: ObjectId) -> None:
        members = self.members
        i = bisect_left(members, (e_abs, t_arrival, object_id))
        if i >= len(members) or members[i][2] != object_id:
            raise ReproError(f"{object_id!r} is not a member of its victim family")
        del members[i]

    # -- merge-source protocol ---------------------------------------------

    def obj_at(self, pos: int) -> StoredObject:
        return self.members[pos][5]

    def entry_at(self, pos: int, now: float) -> Entry | None:
        members = self.members
        if pos >= len(members):
            return None
        _e, t_arrival, oid, t_persist, expire, _obj = members[pos]
        # Exact integer arithmetic throughout (see the module docstring);
        # the member is live (E_abs > now), so age < expire and rem > 0.
        age = now - t_arrival
        if age <= t_persist:
            imp = self.p
        else:
            imp = self.p * (expire - age) / self.t_wane
        return (imp, expire - age, t_arrival, oid, pos, self)


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
            key, e_abs, t_persist, expire = spec
            family = self._families.get(key)
            if family is None:
                family = _Family(key[1], key[2] if len(key) > 2 else math.inf)
                self._families[key] = family
            family.insert(e_abs, t_persist, expire, obj)
            self._membership[oid] = ("f", key, e_abs, obj.t_arrival)
            if obj.t_arrival > self._family_max_arrival:
                self._family_max_arrival = obj.t_arrival
            return
        evaluator = key_evaluator(lifetime)
        # Unverified annotations get single-object groups: the static-order
        # lemma holds trivially and keys go through the generic accessors.
        gkey: object = lifetime if evaluator is not None else oid
        group = self._groups.get(gkey)
        if group is None:
            group = _Group(evaluator if evaluator is not None else _generic_eval)
            self._groups[gkey] = group
        group.insert(obj)
        self._membership[oid] = ("g", gkey, obj.t_arrival)

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
                t_arrival, oid, obj = members[i]
                imp, rem = group.eval(obj, now)
                heads.append((imp, rem, t_arrival, oid, i, group))
        for family in self._families.values():
            entry = family.entry_at(bisect_right(family.members, now, key=_E_OF), now)
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

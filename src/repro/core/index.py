"""Incremental importance index: phase buckets + exact density mass.

The paper's temporal importance functions are *structured*: every resident
is, at any instant, in exactly one of three phases —

* **constant** — its age is within ``lifetime.stable_until``, so its
  current importance equals its initial importance ``p`` exactly;
* **waning** — past the stable prefix but not expired; importance must be
  re-evaluated per probe (linear for the two-step function);
* **expired** — importance identically zero.

Phase membership only changes at an object's two breakpoints, so instead of
re-sorting all residents per pressured arrival (``plan_preemptive_admission``)
and rescanning them per density probe, :class:`ImportanceIndex` keeps

* a dict bucket per distinct constant importance ``p`` with a per-bucket
  byte total, and an expired set;
* no copy of a waning two-step resident on the integer grid: it lives only
  in its ``(p, t_wane)`` victim family (:mod:`repro.core.victims`), sorted
  by absolute expiry ``E``, where the waning members are one contiguous
  run and a probe evaluates their terms in one pass
  (:meth:`GroupedResidents.wane_terms`).  Every other waning resident
  (off-grid arrivals or durations, scaled or non-linear wanes) sits in one
  dict and is evaluated through ``StoredObject.importance_at`` (measured
  shares per workload: docs/performance.md);
* a min-heap of upcoming phase-transition times; :meth:`advance` pops only
  the objects that crossed a breakpoint since the last call (amortised
  O(log n) per resident per lifetime — each object transitions at most
  twice);
* a :class:`DensityAccumulator` holding the constant-phase terms, so the
  size-weighted importance mass costs O(waning) per probe.

Victim selection walks buckets in increasing ``p`` and stops as soon as the
accumulated candidate bytes cover the space deficit, then sorts only that
candidate tail with the exact paper ordering.  The result is provably the
same greedy prefix the naive full sort produces (see docs/performance.md
for the argument), so plans — and therefore artifacts — are byte-identical.

Floating-point discipline
-------------------------

The index is held to *bit-exact* agreement with the naive path:

* Transition times are scheduled two ulps **early** (never late): a popped
  object is re-classified against the same predicates
  (``is_expired_at`` / age vs ``stable_until``) the naive path evaluates,
  and re-armed one ulp ahead when the predicate has not flipped yet.  After
  :meth:`advance`, every resident's bucket matches its predicate phase at
  ``now``.
* The exact mass keeps constant-phase terms as a Shewchuk non-overlapping
  expansion (the ``math.fsum`` trick, made incremental): adding or removing
  a term updates the expansion without rounding, so
  ``fsum(partials + waning terms)`` equals ``fsum`` over all per-object
  terms — exactly what the naive scan computes.
* A family's waning run is found by the exact comparisons
  ``E - t_wane < now < E``, which are the phase predicates themselves on
  the grid, and its terms are bit-identical to
  ``obj.importance_at(now) * obj.size`` (see
  :func:`repro.core.importance.linear_wane`).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from itertools import count
from typing import Iterable

from repro.core.obj import ObjectId, StoredObject
from repro.core.victims import GroupedResidents
from repro.errors import ReproError

__all__ = [
    "DensityAccumulator",
    "ImportanceIndex",
    "PHASE_CONSTANT",
    "PHASE_WANING",
    "PHASE_EXPIRED",
]

PHASE_CONSTANT = "constant"
PHASE_WANING = "waning"
PHASE_EXPIRED = "expired"


def _two_ulps_earlier(t: float) -> float:
    """Nudge a breakpoint two ulps toward -inf (schedule early, never late)."""
    return math.nextafter(math.nextafter(t, -math.inf), -math.inf)


class DensityAccumulator:
    """Incremental, exact size-weighted importance mass of constant terms.

    The per-object terms ``importance * size`` of constant-phase residents
    are kept as a Shewchuk non-overlapping float expansion (``_partials``)
    whose real-valued sum equals the real-valued sum of the registered
    terms.  :meth:`exact_mass` feeds the expansion plus any caller-supplied
    waning terms to :func:`math.fsum`, which is therefore bit-identical to
    ``fsum`` over the individual terms.
    """

    def __init__(self) -> None:
        self._partials: list[float] = []
        self._const_terms: dict[ObjectId, float] = {}

    def _grow(self, x: float) -> None:
        """Add ``x`` to the expansion without rounding (Shewchuk grow)."""
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def add_constant(self, object_id: ObjectId, term: float) -> None:
        """Register a constant-phase term (``p * size``, caller-rounded)."""
        if object_id in self._const_terms:
            raise ReproError(f"{object_id!r} already has a constant term")
        self._const_terms[object_id] = term
        self._grow(term)

    def remove_constant(self, object_id: ObjectId) -> None:
        """Drop a constant term (idempotent); cancels exactly."""
        term = self._const_terms.pop(object_id, None)
        if term is not None:
            self._grow(-term)

    def exact_mass(self, extra_terms: Iterable[float] = ()) -> float:
        """Correctly-rounded sum of constant terms plus ``extra_terms``.

        Bit-identical to ``math.fsum`` over the individual constant terms
        followed by ``extra_terms``, in any order.
        """
        terms = list(self._partials)
        terms.extend(extra_terms)
        return math.fsum(terms)


class ImportanceIndex:
    """Residents bucketed by annotation phase, advanced lazily in time.

    The index mirrors a :class:`~repro.core.store.StorageUnit`'s resident
    set: the store calls :meth:`add` on admission and :meth:`discard` on any
    eviction, and read paths call :meth:`advance` (directly or via the
    probe methods) before trusting bucket membership.  Time may regress
    (tests probe stores at arbitrary instants); the index then rebuilds
    from scratch rather than guessing.
    """

    def __init__(self) -> None:
        self.accumulator = DensityAccumulator()
        self._now = -math.inf
        self._seq = count()
        self._obj: dict[ObjectId, StoredObject] = {}
        self._phase: dict[ObjectId, str] = {}
        self._seq_of: dict[ObjectId, int] = {}
        # Constant phase: one dict bucket per distinct initial importance.
        self._bucket_of: dict[ObjectId, float] = {}
        self._buckets: dict[float, dict[ObjectId, StoredObject]] = {}
        self._bucket_bytes: dict[float, int] = {}
        self._bucket_keys: list[float] = []
        self._keys_dirty = False
        # Waning phase: a resident of an integer-grid victim family lives
        # only there (counted here); every other one sits in this dict.
        self._waning: dict[ObjectId, StoredObject] = {}
        self._family_waning = 0
        # Expired phase.
        self._expired: dict[ObjectId, StoredObject] = {}
        #: Expired residents sorted by (t_arrival, object_id) — the exact
        #: victim order among expired objects (all share the key
        #: ``(0.0, 0.0)``), fed to the grouped merge as one ready stream.
        self._expired_sorted: list[tuple[float, ObjectId, StoredObject]] = []
        self._expired_bytes = 0
        # Pending breakpoints: (scheduled time, admission seq, id).  Entries
        # are invalidated lazily — a popped entry whose seq no longer
        # matches the live object is skipped.
        self._heap: list[tuple[float, int, ObjectId]] = []
        #: Residents grouped by identical annotation; answers the greedy
        #: victim-prefix query lazily (see :mod:`repro.core.victims`).
        self.groups = GroupedResidents()
        #: Phase moves processed so far (monotonic; for tests/diagnostics).
        self.transitions = 0

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._obj)

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self._obj

    def phase_of(self, object_id: ObjectId) -> str:
        """Current phase of a tracked object (advance first for freshness)."""
        try:
            return self._phase[object_id]
        except KeyError:
            raise ReproError(f"{object_id!r} is not indexed") from None

    @property
    def waning_count(self) -> int:
        return len(self._waning) + self._family_waning

    @property
    def expired_count(self) -> int:
        return len(self._expired)

    @property
    def expired_bytes(self) -> int:
        return self._expired_bytes

    # -- classification ----------------------------------------------------

    @staticmethod
    def _classify(obj: StoredObject, now: float) -> str:
        """Phase by the same predicates the naive path evaluates at ``now``."""
        if obj.is_expired_at(now):
            return PHASE_EXPIRED
        if obj.age_at(now) <= obj.lifetime.stable_until:
            return PHASE_CONSTANT
        return PHASE_WANING

    @staticmethod
    def _stable_end_abs(obj: StoredObject) -> float:
        stable = obj.lifetime.stable_until
        if math.isinf(stable):
            return math.inf
        return _two_ulps_earlier(obj.t_arrival + stable)

    @staticmethod
    def _expire_sched_abs(obj: StoredObject) -> float:
        expire = obj.lifetime.t_expire
        if math.isinf(expire):
            return math.inf
        return _two_ulps_earlier(obj.t_arrival + expire)

    # -- membership --------------------------------------------------------

    def add(self, obj: StoredObject, now: float) -> None:
        """Track a freshly admitted resident."""
        oid = obj.object_id
        if oid in self._obj:
            raise ReproError(f"{oid!r} is already indexed")
        self.advance(now)
        self._obj[oid] = obj
        self._seq_of[oid] = next(self._seq)
        self.groups.add(obj)
        self._place(oid, obj, self._classify(obj, now), now)

    def discard(self, object_id: ObjectId) -> None:
        """Stop tracking an object (idempotent) — call on any eviction."""
        obj = self._obj.pop(object_id, None)
        if obj is None:
            return
        self.groups.discard(object_id)
        self._remove_from_phase(object_id, obj)
        del self._seq_of[object_id]

    def _place(self, oid: ObjectId, obj: StoredObject, phase: str, now: float) -> None:
        self._phase[oid] = phase
        if phase == PHASE_CONSTANT:
            p = obj.lifetime.initial_importance
            self._bucket_of[oid] = p
            bucket = self._buckets.get(p)
            if bucket is None:
                self._buckets[p] = {oid: obj}
                self._bucket_bytes[p] = obj.size
                self._keys_dirty = True
            else:
                bucket[oid] = obj
                self._bucket_bytes[p] += obj.size
            if p > 0.0:
                self.accumulator.add_constant(oid, p * obj.size)
            self._arm(oid, self._stable_end_abs(obj), now)
        elif phase == PHASE_WANING:
            if self.groups.in_family(oid):
                self._family_waning += 1
            else:
                self._waning[oid] = obj
            self._arm(oid, self._expire_sched_abs(obj), now)
        else:
            self._expired[oid] = obj
            self._expired_bytes += obj.size
            entry = (obj.t_arrival, oid, obj)
            stream = self._expired_sorted
            if not stream or (stream[-1][0], stream[-1][1]) < (entry[0], entry[1]):
                stream.append(entry)
            else:
                insort(stream, entry)

    def _remove_from_phase(self, oid: ObjectId, obj: StoredObject) -> str:
        phase = self._phase.pop(oid)
        if phase == PHASE_CONSTANT:
            p = self._bucket_of.pop(oid)
            del self._buckets[p][oid]
            self._bucket_bytes[p] -= obj.size
            self.accumulator.remove_constant(oid)
        elif phase == PHASE_WANING:
            # The family side needs nothing: discard() has already left the
            # victim family, and a phase move changes no family order.
            if self._waning.pop(oid, None) is None:
                self._family_waning -= 1
        else:
            del self._expired[oid]
            self._expired_bytes -= obj.size
            stream = self._expired_sorted
            i = bisect_left(stream, (obj.t_arrival, oid))
            if i >= len(stream) or stream[i][1] != oid:
                raise ReproError(f"{oid!r} missing from the expired stream")
            del stream[i]
        return phase

    def _arm(self, oid: ObjectId, t: float, now: float) -> None:
        if math.isinf(t):
            return
        if t <= now:
            t = math.nextafter(now, math.inf)
        heapq.heappush(self._heap, (t, self._seq_of[oid], oid))

    # -- time --------------------------------------------------------------

    def advance(self, now: float) -> None:
        """Process every breakpoint at or before ``now``.

        Afterwards each tracked object's bucket equals its predicate phase
        at ``now``.  A regressing clock triggers a full rebuild.
        """
        if now < self._now:
            self._rebuild(now)
            return
        self._now = now
        heap = self._heap
        while heap and heap[0][0] <= now:
            _, seq, oid = heapq.heappop(heap)
            obj = self._obj.get(oid)
            if obj is None or self._seq_of[oid] != seq:
                continue  # entry from an evicted (possibly re-added) object
            old = self._phase[oid]
            new = self._classify(obj, now)
            if new == old:
                # Popped a hair before the predicate flips (breakpoints are
                # scheduled two ulps early): re-arm one ulp ahead and retry.
                if old == PHASE_CONSTANT:
                    self._arm(oid, self._stable_end_abs(obj), now)
                elif old == PHASE_WANING:
                    self._arm(oid, self._expire_sched_abs(obj), now)
                continue
            self._remove_from_phase(oid, obj)
            self._place(oid, obj, new, now)
            self.transitions += 1

    def _rebuild(self, now: float) -> None:
        objs = self._obj
        self.accumulator = DensityAccumulator()
        self._phase.clear()
        self._bucket_of.clear()
        self._buckets.clear()
        self._bucket_bytes.clear()
        self._bucket_keys = []
        self._keys_dirty = False
        self._waning.clear()
        self._family_waning = 0
        self._expired.clear()
        self._expired_sorted = []
        self._expired_bytes = 0
        self._heap = []
        self._now = now
        # Time regressed: previously-skipped "expired prefixes" inside the
        # victim groups may be live again at the earlier instant.
        self.groups.reset_cursors()
        for oid, obj in objs.items():
            self._place(oid, obj, self._classify(obj, now), now)

    # -- read paths --------------------------------------------------------

    def _sorted_keys(self) -> list[float]:
        if self._keys_dirty:
            for p in [p for p, members in self._buckets.items() if not members]:
                del self._buckets[p]
                del self._bucket_bytes[p]
            self._bucket_keys = sorted(self._buckets)
            self._keys_dirty = False
        return self._bucket_keys

    def victim_candidates(self, now: float, needed: int) -> list[StoredObject]:
        """A superset of the naive greedy victim prefix for ``needed`` bytes.

        All expired and waning residents plus ascending constant buckets
        until expired + constant candidate bytes cover ``needed``.  Every
        excluded resident has constant importance strictly above the last
        included bucket, and the included sub-``p`` mass already covers the
        deficit, so the greedy prefix of the exact ordering never reaches
        an excluded object — sorting just these candidates reproduces the
        full-sort plan bit for bit.
        """
        self.advance(now)
        out = list(self._expired.values())
        out.extend(self._waning.values())
        out.extend(self.groups.waning_members(now))
        freed = self._expired_bytes
        if freed < needed:
            for p in self._sorted_keys():
                members = self._buckets.get(p)
                if not members:
                    continue
                out.extend(members.values())
                freed += self._bucket_bytes[p]
                if freed >= needed:
                    break
        return out

    def greedy_victims(
        self, now: float, needed: int
    ) -> tuple[list[StoredObject], float, int] | None:
        """The exact greedy victim prefix for ``needed`` bytes, lazily.

        Advances the phase machinery to ``now`` (so the expired stream is
        current), then delegates to :meth:`GroupedResidents.greedy_victims`:
        a k-way merge over the expired stream, statically ordered annotation
        groups and integer-grid superfamilies that evaluates importance only
        for merge heads, returning ``(victims, highest, freed)`` with the
        victims in exact paper order.  Returns None when superfamily
        exactness cannot be guaranteed at this ``now`` (non-integer time or
        time before a family member's arrival) — callers fall back to the
        candidates-plus-sort path.
        """
        self.advance(now)
        return self.groups.greedy_victims(
            now, needed, phases=self._phase, expired=self._expired_sorted
        )

    def preempted_floor(
        self, now: float, needed: int, incoming: float, strict: bool
    ) -> tuple[bool, float] | None:
        """``(admissible, highest preempted importance)`` of the plan
        :meth:`greedy_victims` would back, unbuilt: O(1) when the expired
        residents cover ``needed`` or every live resident blocks
        ``incoming`` (the cached floor; a refusal then reports ``incoming``),
        else a fold over the live merge heads
        (:meth:`GroupedResidents.preempted_floor`; None when it declines)."""
        self.advance(now)
        deficit = needed - self._expired_bytes
        if deficit <= 0:
            return True, 0.0
        return self.groups.preempted_floor(now, deficit, incoming, strict, phases=self._phase)

    def expired_objects(self, now: float) -> list[StoredObject]:
        """Expired residents in admission order (matches a naive scan)."""
        self.advance(now)
        seq_of = self._seq_of
        return sorted(self._expired.values(), key=lambda o: seq_of[o.object_id])

    def exact_mass(self, now: float) -> float:
        """Size-weighted importance mass, bit-identical to the naive fsum."""
        self.advance(now)
        terms = self.groups.wane_terms(now)
        terms.extend([obj.importance_at(now) * obj.size for obj in self._waning.values()])
        return self.accumulator.exact_mass(terms)

    #: The closed-form approximation is gone; the name stays because the
    #: benchmark's tracer (``bench/trace.py``) resolves it.
    closed_form_mass = exact_mass

    # -- diagnostics -------------------------------------------------------

    def check(self, now: float) -> bool:
        """Verify every structural invariant at ``now`` (test helper)."""
        self.advance(now)
        self.groups.check()
        self._check_waning(now)
        n = len(self._bucket_of) + self.waning_count + len(self._expired)
        if n != len(self._obj) or n != len(self._phase) or n != len(self._seq_of):
            raise ReproError("index phase sets do not partition the tracked objects")
        bucket_members = sum(len(m) for m in self._buckets.values())
        if bucket_members != len(self._bucket_of):
            raise ReproError("constant bucket membership is inconsistent")
        for oid, obj in self._obj.items():
            phase = self._phase[oid]
            if phase != self._classify(obj, now):
                raise ReproError(f"{oid!r} is bucketed as {phase} but classifies otherwise")
            if phase == PHASE_CONSTANT:
                p = self._bucket_of[oid]
                if obj.lifetime.initial_importance != p or oid not in self._buckets[p]:
                    raise ReproError(f"{oid!r} is in the wrong constant bucket")
                if obj.importance_at(now) != p:
                    raise ReproError(f"{oid!r} importance drifted inside its constant phase")
        for p, members in self._buckets.items():
            total = sum(o.size for o in members.values())
            if total != self._bucket_bytes[p]:
                raise ReproError(f"bucket {p} byte total is stale")
        if self._expired_bytes != sum(o.size for o in self._expired.values()):
            raise ReproError("expired byte total is stale")
        stream = self._expired_sorted
        if len(stream) != len(self._expired) or any(
            stream[i][:2] >= stream[i + 1][:2] for i in range(len(stream) - 1)
        ):
            raise ReproError("expired stream is out of sync with the expired set")
        if any(oid not in self._expired for _, oid, _obj in stream):
            raise ReproError("expired stream holds a non-expired object")
        return True

    def _check_waning(self, now: float) -> None:
        in_family = self.groups.in_family
        for oid, obj in self._waning.items():
            if self._obj.get(oid) is not obj or self._phase[oid] != PHASE_WANING:
                raise ReproError(f"{oid!r} sits in the waning set but is not waning")
            if in_family(oid):
                raise ReproError(f"{oid!r} is waning outside its victim family")
        family = {obj.object_id for obj in self.groups.waning_members(now)}
        phased = {
            oid for oid, phase in self._phase.items()
            if phase == PHASE_WANING and in_family(oid)
        }
        if family != phased or len(family) != self._family_waning:
            raise ReproError("family waning runs disagree with the phase map")

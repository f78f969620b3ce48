"""Incremental importance index: phase buckets + closed-form density mass.

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
* the waning residents as **columns**: one :class:`_WaningColumn` per
  distinct annotation holding parallel ``t_arrival`` / ``size`` arrays and
  an object list (append on entry, O(1) swap-remove on exit via a
  per-object slot map), so a probe evaluates each annotation's wane
  arithmetic once over a whole column
  (:meth:`ImportanceFunction.wane_terms`) instead of walking the
  ``StoredObject`` → ``ImportanceFunction`` call chain per resident;
* a min-heap of upcoming phase-transition times; :meth:`advance` pops only
  the objects that crossed a breakpoint since the last call (amortised
  O(log n) per resident per lifetime — each object transitions at most
  twice);
* a :class:`DensityAccumulator` so the size-weighted importance mass is
  available exactly in O(waning) — one batch call per waning annotation —
  or in O(non-linear waning) via the closed form ``C + A - B * t``.

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
* Waning terms come from ``wane_terms``, whose contract is the same float
  operations in the same order as ``obj.importance_at(now) * obj.size``;
  column members satisfy ``stable_until < age < t_expire`` after
  :meth:`advance`, which is what lets the two-step batch drop the age
  clamp and the expiry branch.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_left, insort
from itertools import count
from typing import Iterable

from repro.core.importance import ImportanceFunction
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
    """Incremental size-weighted importance mass.

    Tracks per-object terms ``importance * size`` in two compartments:

    * **constant** terms, exact: a Shewchuk non-overlapping float expansion
      (``_partials``) whose real-valued sum equals the real-valued sum of
      the registered terms.  :meth:`exact_mass` feeds the expansion plus
      any caller-supplied waning terms to :func:`math.fsum`, which is
      therefore bit-identical to ``fsum`` over the individual terms.
    * **linear** terms ``a - b * t`` (waning objects with a linear wane),
      approximate: plain running sums ``A``/``B`` refreshed periodically
      with ``fsum`` to bound drift.  :meth:`closed_form_mass` evaluates
      ``C + A - B * t`` in O(1).
    """

    def __init__(self) -> None:
        self._partials: list[float] = []
        self._const_terms: dict[ObjectId, float] = {}
        self._const_total: float | None = None
        self._linear: dict[ObjectId, tuple[float, float]] = {}
        self._a = 0.0
        self._b = 0.0
        self._linear_mutations = 0

    def __len__(self) -> int:
        return len(self._const_terms) + len(self._linear)

    # -- exact constant compartment ---------------------------------------

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
        self._const_total = None

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

    # -- approximate linear compartment -----------------------------------

    def add_linear(self, object_id: ObjectId, a: float, b: float) -> None:
        """Register a waning term contributing ``a - b * now``."""
        if object_id in self._linear:
            raise ReproError(f"{object_id!r} already has a linear term")
        self._linear[object_id] = (a, b)
        self._a += a
        self._b += b
        self._note_linear_mutation()

    def remove_linear(self, object_id: ObjectId) -> None:
        """Drop a linear term (idempotent)."""
        coeffs = self._linear.pop(object_id, None)
        if coeffs is not None:
            self._a -= coeffs[0]
            self._b -= coeffs[1]
            self._note_linear_mutation()

    def _note_linear_mutation(self) -> None:
        # Running +/- sums accumulate rounding drift; re-derive them with
        # fsum once enough churn has passed to amortise the O(n) cost.
        self._linear_mutations += 1
        if self._linear_mutations >= 1024 and self._linear_mutations >= 4 * len(self._linear):
            self._a = math.fsum(a for a, _ in self._linear.values())
            self._b = math.fsum(b for _, b in self._linear.values())
            self._linear_mutations = 0

    # -- probes ------------------------------------------------------------

    def exact_mass(self, extra_terms: Iterable[float] = ()) -> float:
        """Correctly-rounded sum of constant terms plus ``extra_terms``.

        Bit-identical to ``math.fsum`` over the individual constant terms
        followed by ``extra_terms``, in any order.
        """
        terms = list(self._partials)
        terms.extend(extra_terms)
        return math.fsum(terms)

    def closed_form_mass(self, now: float, extra: float = 0.0) -> float:
        """O(1) approximate mass ``C + A - B * now`` (+ ``extra``), >= 0."""
        if self._const_total is None:
            self._const_total = math.fsum(self._partials)
        return max(0.0, self._const_total + (self._a - self._b * now) + extra)


class _WaningColumn:
    """The waning residents of one annotation, as parallel columns.

    ``arrivals`` and ``sizes`` are contiguous ``array('d')`` columns: a
    probe streams through them instead of chasing one float and one int
    object per resident across the heap (3x faster at 50k residents).
    ``float * int`` converts the int exactly as ``float(int)`` does, so a
    size held as a double multiplies to the same bits.
    """

    __slots__ = ("arrivals", "sizes", "objs", "coeffs")

    def __init__(self, lifetime: ImportanceFunction) -> None:
        self.arrivals = array("d")
        self.sizes = array("d")
        self.objs: list[StoredObject] = []
        #: The annotation's ``wane_coefficients()``: None for a non-linear
        #: wane, whose members the closed form evaluates per probe.
        self.coeffs = lifetime.wane_coefficients()


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
        # Waning phase: one column set per annotation, and each waning
        # object's ``(column, position in it)``.
        self._columns: dict[ImportanceFunction, _WaningColumn] = {}
        self._slot: dict[ObjectId, tuple[_WaningColumn, int]] = {}
        # Expired phase.
        self._expired: dict[ObjectId, StoredObject] = {}
        #: Expired residents sorted by (t_arrival, object_id) — the exact
        #: victim order among expired objects (all share the key
        #: ``(0.0, 0.0)``), fed to the grouped merge as one ready stream.
        self._expired_sorted: list[tuple[float, ObjectId, StoredObject]] = []
        self._expired_bytes = 0
        self._waning_bytes = 0
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
    def constant_count(self) -> int:
        return len(self._bucket_of)

    @property
    def waning_count(self) -> int:
        return len(self._slot)

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
            lifetime = obj.lifetime
            column = self._columns.get(lifetime)
            if column is None:
                column = self._columns[lifetime] = _WaningColumn(lifetime)
            self._slot[oid] = (column, len(column.objs))
            column.arrivals.append(obj.t_arrival)
            column.sizes.append(obj.size)
            column.objs.append(obj)
            self._waning_bytes += obj.size
            coeffs = column.coeffs
            if coeffs is not None:
                # importance(now) = u - v * (now - t_arrival), so the term
                # importance * size contributes a - b*now with b = v*size.
                u, v = coeffs
                b = v * obj.size
                self.accumulator.add_linear(oid, u * obj.size + b * obj.t_arrival, b)
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
            column, slot = self._slot.pop(oid)
            # Swap-remove: the column's last member takes the vacated slot.
            last = column.objs.pop()
            t_arrival = column.arrivals.pop()
            size = column.sizes.pop()
            if last is not obj:
                column.objs[slot] = last
                column.arrivals[slot] = t_arrival
                column.sizes[slot] = size
                self._slot[last.object_id] = (column, slot)
            elif not column.objs:
                del self._columns[obj.lifetime]
            self._waning_bytes -= obj.size
            if column.coeffs is not None:
                self.accumulator.remove_linear(oid)
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
        self._columns.clear()
        self._slot.clear()
        self._expired.clear()
        self._expired_sorted = []
        self._expired_bytes = 0
        self._waning_bytes = 0
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
        for column in self._columns.values():
            out.extend(column.objs)
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
        residents cover ``needed``, else a fold over the live merge heads
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
        terms: list[float] = []
        for lifetime, column in self._columns.items():
            terms.extend(lifetime.wane_terms(now, column.arrivals, column.sizes))
        return self.accumulator.exact_mass(terms)

    def closed_form_mass(self, now: float) -> float:
        """Approximate mass via ``C + A - B * now``: O(waning annotations)
        plus one batch evaluation per non-linear annotation's column."""
        self.advance(now)
        terms: list[float] = []
        for lifetime, column in self._columns.items():
            if column.coeffs is None:
                terms.extend(lifetime.wane_terms(now, column.arrivals, column.sizes))
        return self.accumulator.closed_form_mass(now, math.fsum(terms))

    # -- diagnostics -------------------------------------------------------

    def check(self, now: float) -> bool:
        """Verify every structural invariant at ``now`` (test helper)."""
        self.advance(now)
        n = len(self._bucket_of) + len(self._slot) + len(self._expired)
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
        self._check_columns()
        return True

    def _check_columns(self) -> None:
        members = 0
        waning_bytes = 0
        for lifetime, column in self._columns.items():
            objs = column.objs
            if not objs or not len(objs) == len(column.arrivals) == len(column.sizes):
                raise ReproError(f"waning columns of {lifetime!r} are empty or ragged")
            for slot, obj in enumerate(objs):
                oid = obj.object_id
                if self._obj.get(oid) is not obj or self._phase[oid] != PHASE_WANING:
                    raise ReproError(f"{oid!r} sits in a waning column but is not waning")
                if self._slot.get(oid) != (column, slot) or obj.lifetime != lifetime:
                    raise ReproError(f"{oid!r} has a stale waning slot")
                if (column.arrivals[slot], column.sizes[slot]) != (obj.t_arrival, float(obj.size)):
                    raise ReproError(f"{oid!r} has stale waning column values")
            members += len(objs)
            waning_bytes += sum(obj.size for obj in objs)
        if members != len(self._slot):
            raise ReproError("waning slot map and columns disagree")
        if waning_bytes != self._waning_bytes:
            raise ReproError("waning byte total is stale")

"""Incremental importance index: resident phases + exact density mass.

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

* one :class:`Resident` record per resident, in the unit's only table
  keyed by object id (admission order); every structure below holds the
  record itself;
* an arrival-sorted expired stream;
* no copy of a waning two-step resident on the integer grid: it lives only
  in its ``(p, t_wane)`` victim family (:mod:`repro.core.victims`), sorted
  by absolute expiry ``E``, where the waning members are one contiguous
  run and a probe evaluates their terms in one pass
  (:meth:`GroupedResidents.wane_terms`).  Every other waning resident
  (off-grid durations, scaled or non-linear wanes) sits in one
  dict and is evaluated through ``StoredObject.importance_at`` (measured
  shares per workload: docs/performance.md);
* a min-heap of upcoming phase-transition times; :meth:`advance` pops only
  the objects that crossed a breakpoint since the last call (amortised
  O(log n) per resident per lifetime — each object transitions at most
  twice); a discarded resident's entry goes stale and is shed in bulk;
* a :class:`DensityAccumulator` holding the constant-phase terms, so the
  size-weighted importance mass costs O(waning) per probe.

Victim selection is a lazy k-way merge over the expired stream and the
statically ordered victim sources (:mod:`repro.core.victims`) that stops as
soon as the victims cover the space deficit.  The result is provably the
same greedy prefix the naive full sort produces (see docs/performance.md
for the argument), so plans — and therefore artifacts — are byte-identical.

Floating-point discipline
-------------------------

The index is held to *bit-exact* agreement with the naive path:

* Transition times are scheduled two ulps **early** (never late): a popped
  object is re-classified against the same predicates
  (``is_expired_at`` / age vs ``stable_until``) the naive path evaluates,
  and re-armed one ulp ahead when the predicate has not flipped yet.  After
  :meth:`advance`, every resident's phase matches its predicate phase at
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
from itertools import chain, count
from typing import Iterable

from repro.core.obj import ObjectId, StoredObject
from repro.core.victims import GroupedResidents
from repro.errors import ReproError, SimulationError

__all__ = [
    "DensityAccumulator",
    "ImportanceIndex",
    "Resident",
    "PHASE_CONSTANT",
    "PHASE_WANING",
    "PHASE_EXPIRED",
]

PHASE_CONSTANT = "constant"
PHASE_WANING = "waning"
PHASE_EXPIRED = "expired"

#: Stale heap entries are dropped once they outnumber the residents over this
#: share: ``n`` residents keep ``(1 + 1/share) n`` entries at most, a discard
#: filters ``share + 1`` amortised, and live (t, seq) entries keep their order.
_STALE_SHARE = 1


class Resident:
    """One resident's bookkeeping, booked once per admission.

    ``obj`` (None once discarded, as are ``source`` and ``key``, which
    marks its heap entry stale), its admission ``seq`` (heap tie-break,
    expiry order), its ``phase`` as of the last :meth:`ImportanceIndex.advance`,
    the victim ``source`` (group or family, :mod:`repro.core.victims`)
    holding it and its sort ``key`` there, and its ``last_access`` (recency baselines).
    :attr:`ImportanceIndex.residents` maps each object id to its record;
    every other structure holds the record itself.
    """

    __slots__ = ("obj", "seq", "phase", "source", "key", "last_access")

    def __init__(self, obj: StoredObject, seq: int, now: float) -> None:
        self.obj: StoredObject | None = obj
        self.seq = seq
        self.phase = ""
        self.source: object = None
        self.key: tuple = ()
        self.last_access = now


class DensityAccumulator:
    """Incremental, exact size-weighted importance mass of constant terms.

    The per-object terms ``importance * size`` of constant-phase residents
    are kept as a Shewchuk non-overlapping float expansion (``_partials``)
    whose real-valued sum equals the real-valued sum of the registered
    terms.  :meth:`exact_mass` feeds the expansion plus any caller-supplied
    waning terms to :func:`math.fsum`, which is therefore bit-identical to
    ``fsum`` over the individual terms.  It keeps no per-object state: the
    caller removes a term by adding its negation, recomputed (``p * size``
    has the same bits every time), which cancels exactly.
    """

    def __init__(self) -> None:
        self._partials: list[float] = []

    def add(self, x: float) -> None:
        """Add a term to the expansion without rounding (Shewchuk grow)."""
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

    def exact_mass(self, extra_terms: Iterable[float] = ()) -> float:
        """Correctly-rounded sum of constant terms plus ``extra_terms``.

        Bit-identical to ``math.fsum`` over the individual constant terms
        followed by ``extra_terms``, in any order.
        """
        return math.fsum(chain(self._partials, extra_terms))


class ImportanceIndex:
    """Residents filed by annotation phase, advanced lazily in time.

    The index holds a :class:`~repro.core.store.StorageUnit`'s resident
    set: the store calls :meth:`add` on admission and :meth:`discard` on any
    eviction, reads membership, iteration order and last access from
    :attr:`residents`, and read paths call :meth:`advance` (directly or via
    the probe methods) before trusting phases.  Time never goes back: an
    earlier or NaN ``now`` raises.
    """

    def __init__(self) -> None:
        self.accumulator = DensityAccumulator()
        self._now = -math.inf
        self._seq = count()
        #: object id -> :class:`Resident`, in admission order: the unit's
        #: only id-keyed table of its residents.
        self.residents: dict[ObjectId, Resident] = {}
        # Constant phase: only the accumulator's terms.  Waning phase: a
        # resident of an integer-grid victim family lives only there
        # (counted here); every other one sits in this dict.
        self._waning: dict[ObjectId, Resident] = {}
        self._family_waning = 0
        #: Expired residents sorted by (t_arrival, object_id) — the exact
        #: victim order among expired objects (all share the key
        #: ``(0.0, 0.0)``), fed to the grouped merge as one ready stream.
        self._expired: list[tuple[float, ObjectId, Resident]] = []
        self._expired_bytes = 0
        # Pending breakpoints: (scheduled time, admission seq, record); the
        # ``_stale`` ones, whose record was discarded (``obj`` None), are skipped.
        self._heap: list[tuple[float, int, Resident]] = []
        self._stale = 0
        #: Residents grouped by identical annotation; answers the greedy
        #: victim-prefix query lazily (see :mod:`repro.core.victims`).
        self.groups = GroupedResidents()
        #: Phase moves processed so far (monotonic; for tests/diagnostics).
        self.transitions = 0

    # -- introspection -----------------------------------------------------

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

    # -- membership --------------------------------------------------------

    def add(self, obj: StoredObject, now: float) -> None:
        """Track a freshly admitted resident (last accessed at ``now``)."""
        oid = obj.object_id
        if oid in self.residents:
            raise ReproError(f"{oid!r} is already indexed")
        self.advance(now)
        rec = self.residents[oid] = Resident(obj, next(self._seq), now)
        self.groups.add(rec)
        self._place(rec, self._classify(obj, now), now)

    def discard(self, object_id: ObjectId) -> None:
        """Stop tracking an object (idempotent) — call on any eviction."""
        rec = self.residents.pop(object_id, None)
        if rec is None:
            return
        self.groups.discard(rec)
        self._remove_from_phase(rec)
        self._stale += math.isfinite(self._span(rec))
        rec.obj = rec.source = rec.key = None
        if self._stale * _STALE_SHARE > len(self.residents):
            self._heap[:] = [entry for entry in self._heap if entry[2].obj is not None]
            heapq.heapify(self._heap)
            self._stale = 0

    def _place(self, rec: Resident, phase: str, now: float) -> None:
        rec.phase = phase
        obj = rec.obj
        if phase == PHASE_CONSTANT:
            p = obj.lifetime.initial_importance
            if p > 0.0:
                self.accumulator.add(p * obj.size)
            self._arm(rec, now)
        elif phase == PHASE_WANING:
            if self.groups.in_family(rec):
                self._family_waning += 1
            else:
                self._waning[obj.object_id] = rec
            self._arm(rec, now)
        else:
            self._expired_bytes += obj.size
            entry = (obj.t_arrival, obj.object_id, rec)
            stream = self._expired
            if not stream or (stream[-1][0], stream[-1][1]) < (entry[0], entry[1]):
                stream.append(entry)
            else:
                insort(stream, entry)

    def _remove_from_phase(self, rec: Resident) -> None:
        obj = rec.obj
        phase = rec.phase
        if phase == PHASE_CONSTANT:
            p = obj.lifetime.initial_importance
            if p > 0.0:
                self.accumulator.add(-(p * obj.size))
        elif phase == PHASE_WANING:
            # The family side needs nothing: discard() has already left the
            # victim family, and a phase move changes no family order.
            if self.groups.in_family(rec):
                self._family_waning -= 1
            else:
                del self._waning[obj.object_id]
        else:
            self._expired_bytes -= obj.size
            stream = self._expired
            i = bisect_left(stream, (obj.t_arrival, obj.object_id))
            if i >= len(stream) or stream[i][2] is not rec:
                raise ReproError(f"{obj.object_id!r} missing from the expired stream")
            del stream[i]

    @staticmethod
    def _span(rec: Resident) -> float:
        """Minutes from arrival to the end of the phase (inf: no entry)."""
        lifetime = rec.obj.lifetime
        if rec.phase == PHASE_CONSTANT:
            return lifetime.stable_until
        return lifetime.t_expire if rec.phase == PHASE_WANING else math.inf

    def _arm(self, rec: Resident, now: float) -> None:
        """Schedule the end of a constant or waning phase, two ulps early
        (never late), and never at or before ``now``."""
        span = self._span(rec)
        if math.isinf(span):
            return
        t = math.nextafter(math.nextafter(rec.obj.t_arrival + span, -math.inf), -math.inf)
        if t <= now:
            t = math.nextafter(now, math.inf)
        heapq.heappush(self._heap, (t, rec.seq, rec))

    # -- time --------------------------------------------------------------

    def advance(self, now: float) -> None:
        """Process every breakpoint at or before ``now``.

        Afterwards each tracked object's phase equals its predicate phase
        at ``now``.  An earlier or NaN ``now`` raises
        :class:`~repro.errors.SimulationError`, leaving the index as it was.
        """
        if not now >= self._now:  # backwards, or NaN
            raise SimulationError(f"the importance index is at {self._now!r}, not before {now!r}")
        self._now = now
        heap = self._heap
        while heap and heap[0][0] <= now:
            rec = heapq.heappop(heap)[2]
            obj = rec.obj
            if obj is None:
                self._stale -= 1  # entry of an evicted resident
                continue
            old = rec.phase
            new = self._classify(obj, now)
            if new == old:
                # Popped a hair before the predicate flips (breakpoints are
                # scheduled two ulps early): re-arm one ulp ahead and retry.
                self._arm(rec, now)
                continue
            self._remove_from_phase(rec)
            self._place(rec, new, now)
            self.transitions += 1

    # -- read paths --------------------------------------------------------

    #: The sort fallback is gone (every plan is the merge's); the name
    #: stays because the benchmark's tracer (``bench/trace.py``) resolves it.
    victim_candidates = None

    def greedy_victims(
        self, now: float, needed: int
    ) -> tuple[list[StoredObject], float, int]:
        """The exact greedy victim prefix for ``needed`` bytes, lazily.

        Advances the phase machinery to ``now`` (so the expired stream is
        current), then delegates to :meth:`GroupedResidents.greedy_victims`:
        a k-way merge over the expired stream, statically ordered annotation
        groups and integer-grid superfamilies that evaluates importance only
        for merge heads, returning ``(victims, highest, freed)`` with the
        victims in exact paper order.  ``now`` is a decision time of the
        unit's clock: a whole minute, no earlier than any resident's
        arrival, which is what keeps the superfamily arithmetic exact.
        """
        self.advance(now)
        return self.groups.greedy_victims(now, needed, expired=self._expired)

    def preempted_floor(
        self, now: float, needed: int, incoming: float, strict: bool
    ) -> tuple[bool, float] | None:
        """``(admissible, highest preempted importance)`` of the plan
        :meth:`greedy_victims` would back, unbuilt: O(1) when the expired
        residents cover ``needed`` or every live resident blocks
        ``incoming`` (the cached floor; a refusal then reports ``incoming``),
        else a fold over the live merge heads
        (:meth:`GroupedResidents.preempted_floor`; None when the pool runs
        dry).  ``now`` is a decision time, as for :meth:`greedy_victims`."""
        self.advance(now)
        deficit = needed - self._expired_bytes
        if deficit <= 0:
            return True, 0.0
        return self.groups.preempted_floor(now, deficit, incoming, strict)

    def full_through(
        self, now: float, level: float, strict: bool, resident: ObjectId | None = None
    ) -> float:
        """The unit's full-for-importance instant for ``level`` (the cached
        :meth:`GroupedResidents.full_through`): while the clock is at or
        before it, the unit refuses any object at ``level`` larger than
        its free bytes plus :attr:`expired_bytes`, and only an add or a
        discard moves either number.  With ``resident``, only that
        resident's own instant.  ``now`` is a decision time, as for
        :meth:`greedy_victims`."""
        self.advance(now)
        rec = None if resident is None else self.residents[resident]
        return self.groups.full_through(now, level, strict, rec)

    def expired_objects(self, now: float) -> list[StoredObject]:
        """Expired residents in admission order (matches a naive scan)."""
        self.advance(now)
        return [entry[2].obj for entry in sorted(self._expired, key=lambda e: e[2].seq)]

    def exact_mass(self, now: float) -> float:
        """Size-weighted importance mass, bit-identical to the naive fsum."""
        self.advance(now)
        terms = self.groups.wane_terms(now)
        terms.extend([
            rec.obj.importance_at(now) * rec.obj.size for rec in self._waning.values()
        ])
        return self.accumulator.exact_mass(terms)

    #: The closed-form approximation is gone; the name stays because the
    #: benchmark's tracer (``bench/trace.py``) resolves it.
    closed_form_mass = exact_mass

    # -- diagnostics -------------------------------------------------------

    def check(self, now: float) -> bool:
        """Verify every structural invariant at ``now`` (test helper)."""
        self.advance(now)
        residents = self.residents
        filed = self.groups.check()
        if len(filed) != len(residents) or any(
            residents.get(rec.obj.object_id) is not rec for rec in filed
        ):
            raise ReproError("the victim sources and the resident table are ragged")
        in_family = self.groups.in_family
        for oid, rec in self._waning.items():
            if residents.get(oid) is not rec or rec.phase != PHASE_WANING:
                raise ReproError(f"{oid!r} sits in the waning set but is not waning")
            if in_family(rec):
                raise ReproError(f"{oid!r} is waning outside its victim family")
        family = {obj.object_id for obj in self.groups.waning_members(now)}
        phased = {
            oid for oid, rec in residents.items() if rec.phase == PHASE_WANING and in_family(rec)
        }
        if family != phased or len(family) != self._family_waning:
            raise ReproError("family waning runs disagree with the phase map")
        constant = sum(rec.phase == PHASE_CONSTANT for rec in residents.values())
        if constant + self.waning_count + len(self._expired) != len(residents):
            raise ReproError("index phase sets do not partition the tracked objects")
        terms = []
        for oid, rec in residents.items():
            obj = rec.obj
            if obj is None or obj.object_id != oid:
                raise ReproError(f"{oid!r} is filed under another object")
            phase = rec.phase
            if phase != self._classify(obj, now):
                raise ReproError(f"{oid!r} is filed as {phase} but classifies otherwise")
            if phase == PHASE_CONSTANT:
                p = obj.lifetime.initial_importance
                if obj.importance_at(now) != p:
                    raise ReproError(f"{oid!r} importance drifted inside its constant phase")
                if p > 0.0:
                    terms.append(p * obj.size)
        if self.accumulator.exact_mass() != math.fsum(terms):
            raise ReproError("the constant-phase mass is stale")
        stream = self._expired
        if stream != sorted(stream, key=lambda entry: entry[:2]) or any(
            rec.phase != PHASE_EXPIRED or residents.get(oid) is not rec for _t, oid, rec in stream
        ):
            raise ReproError("expired stream is out of sync with the expired phase")
        if self._expired_bytes != sum(rec.obj.size for _t, _oid, rec in stream):
            raise ReproError("expired byte total is stale")
        live = sorted(id(rec) for _t, _seq, rec in self._heap if rec.obj is not None)
        if live != sorted(id(r) for r in residents.values() if math.isfinite(self._span(r))):
            raise ReproError("the heap does not hold one entry per resident with a breakpoint")
        stale = len(self._heap) - len(live)
        if stale != self._stale or stale * _STALE_SHARE > len(residents):
            raise ReproError(f"{stale} stale heap entries, counted {self._stale}, or too many")
        return True

"""A single storage unit with preemptive admission (paper Section 3).

:class:`StorageUnit` owns the residents, enforces the capacity invariant,
executes admission plans atomically and logs every decision it makes (each
offer's verdict, each eviction, each rejection) into one :class:`History`
that the simulation recorder and the analysis layer read.  All temporal
reasoning is delegated to the objects' importance functions; the unit
takes ``now`` on every call, which makes it usable both from the
discrete-time simulator and directly from library users' code, and holds
that ``now`` to one contract, the unit clock
(:meth:`StorageUnit.advance_clock`).
"""

from __future__ import annotations

import dataclasses
from array import array
from contextlib import suppress
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from operator import eq
from time import perf_counter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from repro._values import slot_init
from repro.core.importance import ImportanceFunction, check_filed
from repro.core.index import ImportanceIndex, Resident
from repro.core.obj import ObjectId, StoredObject
from repro.core.policy import AdmissionPlan, EvictionPolicy
from repro.core.slab import ResidentSlab
from repro.errors import CapacityError, SimulationError, UnknownObjectError
from repro.obs import COUNT_BUCKETS, STATE as _OBS, observe_phase
from repro.units import on_exact_grid

__all__ = [
    "ArrivalRecord",
    "EvictionRecord",
    "History",
    "HistoryLog",
    "RejectionRecord",
    "AdmissionResult",
    "StorageUnit",
    "StoreStats",
]


@dataclass(frozen=True)
class StoreStats:
    """One frozen snapshot of a unit's monotonic counters and occupancy.

    This is the stable read surface for reports, probes and tests —
    consumers take one consistent snapshot instead of poking individual
    attributes that may change between reads.  Snapshots are plain
    picklable data, so they also cross process boundaries in parallel
    runs.
    """

    unit: str
    capacity_bytes: int
    used_bytes: int
    resident_count: int
    accepted_count: int
    rejected_count: int
    evicted_count: int
    bytes_accepted: int
    bytes_evicted: int
    bytes_rejected: int

    @property
    def free_bytes(self) -> int:
        """Unallocated bytes at snapshot time."""
        return self.capacity_bytes - self.used_bytes

    @property
    def utilization(self) -> float:
        """Fraction of raw capacity occupied, in ``[0, 1]``."""
        return self.used_bytes / self.capacity_bytes

    @property
    def offered_count(self) -> int:
        """Total objects ever offered (accepted + rejected)."""
        return self.accepted_count + self.rejected_count


@dataclass(frozen=True, slots=True)
class ArrivalRecord:
    """One object offered to a storage unit, with its verdict."""

    t: float
    size: int
    admitted: bool
    creator: str
    object_id: ObjectId
    unit: str = ""


@slot_init
@dataclass(frozen=True, slots=True)
class EvictionRecord:
    """One object leaving a storage unit.

    ``achieved_lifetime`` (minutes the object actually survived) and
    ``importance_at_eviction`` are the paper's two headline per-object
    metrics (Figures 3, 9 and 10).  The record carries the object's facts
    (id, creator, size, arrival, annotation), not the object, so a run's
    history does not keep every evicted object and its metadata alive.
    """

    object_id: ObjectId
    creator: str
    size: int
    t_arrival: float
    lifetime: ImportanceFunction
    t_evicted: float
    importance_at_eviction: float
    reason: str  # "preempted" | "expired" | "manual"
    preempted_by: ObjectId | None = None
    unit: str = ""

    @property
    def achieved_lifetime(self) -> float:
        """Minutes between arrival and eviction."""
        return self.t_evicted - self.t_arrival

    @property
    def requested_lifetime(self) -> float:
        """Minutes of lifetime the annotation asked for (``t_expire``)."""
        return self.lifetime.t_expire


@slot_init
@dataclass(frozen=True, slots=True)
class RejectionRecord:
    """One arrival turned away because the store was full for its importance.

    Like :class:`EvictionRecord`, it carries the object's facts, not the
    object.
    """

    object_id: ObjectId
    creator: str
    size: int
    t_arrival: float
    lifetime: ImportanceFunction
    t_rejected: float
    blocking_importance: float | None
    reason: str
    unit: str = ""


#: History fields that repeat a few values: kept as codes into one table
#: of distinct labels per log.
_LABELS = frozenset({"creator", "reason", "unit"})
#: Column kind by a field's annotation: a typecode, "s" packed ids, "" a list.
_TYPECODES = {"float": "d", "int": "q", "bool": "b", "ObjectId": "s", "ObjectId | None": "s"}
#: Rows a log buffers before it moves them into its columns in one pass,
#: so an append (one per offer or eviction) costs about a list append.
_BATCH = 256

R = TypeVar("R")


#: Per record type: field names and column kinds ("I" label code, "d", "q",
#: "b", "s" packed ids, "" list).
_Layout = NamedTuple("_Layout", [("names", tuple), ("kinds", tuple)])


@cache
def _layout(record_type: type) -> _Layout:
    fields = dataclasses.fields(record_type)
    kinds = tuple("I" if f.name in _LABELS else _TYPECODES.get(f.type, "") for f in fields)
    names = tuple(f.name for f in fields)
    return _Layout(names, kinds)


class _Ids:
    """An id column: the ids' UTF-8 bytes back to back and each row's end
    offset (``~end`` for None), so the log keeps no id string alive."""

    __slots__ = ("data", "ends")

    def __init__(self) -> None:
        self.data, self.ends = bytearray(), array("q")

    def extend(self, encoded: list[bytes | None]) -> None:
        ends = [*accumulate([len(raw or b"") for raw in encoded], initial=len(self.data))][1:]
        self.ends += array("q", [~end if raw is None else end for raw, end in zip(encoded, ends)])
        self.data += b"".join(filter(None, encoded))

    def __len__(self) -> int:
        return len(self.ends)

    def __iter__(self) -> Iterator[str | None]:
        return map(self._id, range(len(self.ends)))

    def __getitem__(self, rows: slice) -> list[str | None]:
        return list(map(self._id, range(len(self.ends))[rows]))

    def _id(self, row: int) -> str | None:
        end, before = self.ends[row], self.ends[row - 1] if row else 0
        raw = None if end < 0 else self.data[max(before, ~before) : end]  # from before's end
        return None if raw is None else raw.decode("utf-8", "surrogatepass")


class HistoryLog(Sequence[R]):
    """An append-only, read-only sequence of one slotted record type, kept
    as one column per field: floats in ``array("d")``, ints in
    ``array("q")`` (a list once one outgrows 64 bits), bools in
    ``array("b")``, the labels (``creator``, ``reason``, ``unit``) as
    ``array("I")`` codes into one label table, ids packed (:class:`_Ids`),
    annotations and optional values in lists.  Items and iteration rebuild
    equal records, bit for bit; :meth:`column` reads one field without
    building any.  A log equals a log or list of equal records, and pickles.
    """

    __slots__ = ("record_type", "_width", "_pending", "_columns", "_labels", "_codes")

    def __init__(self, record_type: type[R]) -> None:
        self.record_type = record_type
        #: Fields per row (what :meth:`add` checks, once per row).
        self._width = len(_layout(record_type).kinds)
        #: Appended rows (tuples of field values) not yet in the columns,
        #: which appear on the first flush: an empty log is two objects.
        self._pending: list[tuple] = []
        self._columns: list | tuple = ()
        self._labels: list[str] | tuple = ()
        self._codes: dict[str, int] | tuple = ()

    def add(self, *values: object) -> None:
        """Append one record given as its field values, in field order."""
        if len(values) != self._width:
            raise TypeError(f"{self.record_type.__name__} has {self._width} fields")
        pending = self._pending
        pending.append(values)
        if len(pending) >= _BATCH:
            self._flush()

    def _flush(self) -> list | tuple:
        """Move the buffered rows into the columns; returns the columns."""
        rows, columns = self._pending, self._columns
        if not rows:
            return columns
        kinds = _layout(self.record_type).kinds
        if not columns:
            columns = self._columns = [
                _Ids() if kind == "s" else array(kind) if kind else [] for kind in kinds
            ]
            self._labels, self._codes = [], {}
        codes, labels = self._codes, self._labels
        segments = []
        for kind, values in zip(kinds, zip(*rows)):
            if kind == "I":
                for label in dict.fromkeys(values):
                    if label not in codes:
                        codes[label] = len(labels)
                        labels.append(label)
                values = map(codes.__getitem__, values)
            if kind == "s":
                values = [None if i is None else i.encode("utf-8", "surrogatepass") for i in values]
            elif kind:
                with suppress(OverflowError):  # an int past 64 bits stays in a tuple
                    values = array(kind, values)
            segments.append(values)
        # Every segment is built before any column grows: a bad row leaves
        # the log as it was.
        for i, segment in enumerate(segments):
            if isinstance(columns[i], array) and not isinstance(segment, array):
                columns[i] = list(columns[i])
            columns[i].extend(segment)
        self._pending = []
        return columns

    def column(self, name: str) -> Iterable:
        """One field's values in append order, without building records."""
        return self._decoded(self._flush(), _layout(self.record_type).names.index(name))

    def _decoded(self, columns: list, i: int) -> Iterable:
        if not columns:
            return ()
        kind = _layout(self.record_type).kinds[i]
        if kind == "I":
            return map(self._labels.__getitem__, columns[i])
        return map(bool, columns[i]) if kind == "b" else columns[i]

    def _rows(self, columns: list) -> Iterator[R]:
        decoded = [self._decoded(columns, i) for i in range(len(columns))]
        return map(self.record_type, *decoded) if decoded else iter(())

    def __len__(self) -> int:
        return (len(self._columns[0]) if self._columns else 0) + len(self._pending)

    def __iter__(self) -> Iterator[R]:
        return self._rows(self._flush())

    def __getitem__(self, index):
        columns = self._flush()
        if isinstance(index, slice):
            return list(self._rows([column[index] for column in columns]))
        i = range(len(self))[index]
        return next(self._rows([column[i : i + 1] for column in columns]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (HistoryLog, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class History:
    """A stream of per-object decisions, as written by the units that made
    them: each offer's verdict, each eviction and each rejection."""

    def __init__(self) -> None:
        self.arrivals: HistoryLog[ArrivalRecord] = HistoryLog(ArrivalRecord)
        self.evictions: HistoryLog[EvictionRecord] = HistoryLog(EvictionRecord)
        self.rejections: HistoryLog[RejectionRecord] = HistoryLog(RejectionRecord)


@slot_init
@dataclass(frozen=True, slots=True)
class AdmissionResult:
    """Outcome of :meth:`StorageUnit.offer`."""

    admitted: bool
    plan: AdmissionPlan
    evictions: tuple[EvictionRecord, ...] = ()
    rejection: RejectionRecord | None = None


class StorageUnit:
    """Fixed-capacity object store governed by an :class:`EvictionPolicy`.

    Parameters
    ----------
    capacity_bytes:
        Raw capacity of the unit (positive int).
    policy:
        The admission/eviction planner; see :mod:`repro.core.policies`.
    name:
        Identifier used in records and reports (e.g. ``"desktop-0421"``).
    keep_history:
        When True the unit logs its decisions into a :class:`History` of
        its own (:attr:`history`); by default it logs nothing until a
        :class:`~repro.sim.recorder.Recorder` is attached, which makes the
        recorder its history.

    Every unit books each resident once, as a
    :class:`~repro.core.index.Resident` record in its
    :class:`~repro.core.index.ImportanceIndex` (:attr:`importance_index`):
    membership, admission order and last access are read from its table,
    and its phase buckets and victim sources answer admission victims,
    density mass and the expired set, all bit-identical to a full scan of
    the residents.  A :class:`~repro.core.slab.ResidentSlab`
    (:attr:`resident_slab`) keeps the per-creator byte totals.  There is
    no other configuration; the full-scan reference the differential
    suites compare against lives in ``tests/oracles``.

    Every method that takes ``now`` keeps the unit clock
    (:meth:`advance_clock`): time moves only forward, on whole minutes, and
    an offered object arrives on a whole minute no later than its offer.  A violation raises
    :class:`~repro.errors.SimulationError` before anything changes.
    """

    def __init__(
        self,
        capacity_bytes: int,
        policy: EvictionPolicy,
        *,
        name: str = "unit-0",
        keep_history: bool = False,
    ) -> None:
        if (
            not isinstance(capacity_bytes, int)
            or isinstance(capacity_bytes, bool)
            or capacity_bytes <= 0
        ):
            raise CapacityError(f"capacity must be a positive int, got {capacity_bytes!r}")
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.name = name
        #: The residents' records, phase-bucketed (victims, density mass,
        #: expiry, last access).
        self.importance_index = ImportanceIndex()
        #: Per-creator byte totals of the residents.
        self.resident_slab = ResidentSlab()
        self._used_bytes = 0
        self._now = -float("inf")

        #: Where every decision is logged (see ``keep_history``), or None.
        self.history: History | None = History() if keep_history else None

        #: Monotonic counters, always maintained regardless of history mode.
        self.accepted_count = 0
        self.rejected_count = 0
        self.evicted_count = 0
        self.bytes_accepted = 0
        self.bytes_evicted = 0
        self.bytes_rejected = 0

        #: An optional observer invoked synchronously on each eviction.
        self.on_eviction: Callable[[EvictionRecord], None] | None = None

    # -- introspection -----------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes currently occupied by residents."""
        return self._used_bytes

    @property
    def free_bytes(self) -> int:
        """Unallocated bytes."""
        return self.capacity_bytes - self._used_bytes

    @property
    def resident_count(self) -> int:
        """Number of stored objects."""
        return len(self.importance_index.residents)

    def __len__(self) -> int:
        return len(self.importance_index.residents)

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self.importance_index.residents

    def _record(self, object_id: ObjectId) -> Resident:
        rec = self.importance_index.residents.get(object_id)
        if rec is None:
            raise UnknownObjectError(f"{object_id!r} not stored on {self.name}")
        return rec

    def get(self, object_id: ObjectId) -> StoredObject:
        """Return a resident by id; raises :class:`UnknownObjectError`."""
        return self._record(object_id).obj

    def iter_residents(self) -> Iterator[StoredObject]:
        """Iterate over current residents in insertion order."""
        return iter([rec.obj for rec in self.importance_index.residents.values()])

    def last_access(self, object_id: ObjectId) -> float:
        """Last touch/insert time of a resident (for recency baselines)."""
        return self._record(object_id).last_access

    def bytes_by_creator(self) -> dict[str, int]:
        """Resident bytes per creator class (O(#creators), from the slab)."""
        return self.resident_slab.bytes_by_creator()

    def utilization(self) -> float:
        """Fraction of raw capacity occupied, in ``[0, 1]``."""
        return self._used_bytes / self.capacity_bytes

    def stats(self) -> StoreStats:
        """One consistent :class:`StoreStats` snapshot of this unit."""
        return StoreStats(
            unit=self.name,
            capacity_bytes=self.capacity_bytes,
            used_bytes=self._used_bytes,
            resident_count=len(self.importance_index.residents),
            accepted_count=self.accepted_count,
            rejected_count=self.rejected_count,
            evicted_count=self.evicted_count,
            bytes_accepted=self.bytes_accepted,
            bytes_evicted=self.bytes_evicted,
            bytes_rejected=self.bytes_rejected,
        )

    # -- the unit clock ----------------------------------------------------

    def advance_clock(self, now: float) -> None:
        """Move the unit's clock to ``now``, or refuse it.

        ``now`` must be a whole minute in ``[0, 2**51]``
        (:func:`repro.units.on_exact_grid`) no earlier than the last the
        unit saw, which keeps the victim merge's arithmetic exact
        (:mod:`repro.core.victims`) and puts every read on the minute the
        importance index schedules its breakpoints at; else
        :class:`~repro.errors.SimulationError`, with the unit unchanged.
        """
        if not (now >= self._now and on_exact_grid(now)):
            raise SimulationError(
                f"{self.name}'s clock is at {self._now!r}; it moves to a later whole "
                f"minute, not to {now!r}"
            )
        self._now = now

    # -- mutation ----------------------------------------------------------

    def offer(
        self, obj: StoredObject, now: float, *, plan: AdmissionPlan | None = None
    ) -> AdmissionResult:
        """Offer an object for storage at time ``now``.

        Applies the policy's admission plan atomically: either the object is
        stored (after evicting exactly the planned victims) or nothing
        changes and a rejection is recorded.  Victims are only ever removed
        on successful admission — rejected arrivals have no side effects.

        ``plan`` reuses a plan from :meth:`peek_admission` at the same
        ``now`` (how Besteffs commits a placement); the store must not have
        mutated in between, which the single-threaded simulator guarantees.
        A plan that no longer fits — a victim already gone, or too little
        space even after the evictions — raises before anything is evicted.
        ``obj`` must arrive on a whole minute no later than ``now``, and an
        annotation of a kind outside the built-ins must hold its breakpoints
        to whole minutes (:func:`~repro.core.importance.check_filed`).
        """
        t_arrival = obj.t_arrival
        if not (on_exact_grid(t_arrival) and t_arrival <= now):
            raise SimulationError(
                f"{obj.object_id!r} arrives at {t_arrival!r}: an offer at {now!r} "
                "needs a whole-minute arrival no later than it"
            )
        check_filed(obj.lifetime)
        self.advance_clock(now)
        residents = self.importance_index.residents
        if obj.object_id in residents:
            raise CapacityError(f"{obj.object_id!r} is already stored on {self.name}")
        if plan is None:
            plan = self._plan(obj, now)
        ledger = _OBS.audit if _OBS.enabled else None
        history = self.history
        if not plan.admit:
            # One row, in RejectionRecord's field order: logged and built as is.
            row = (
                obj.object_id, obj.creator, obj.size, t_arrival, obj.lifetime, now,
                plan.blocking_importance, plan.reason, self.name,
            )
            rejection = RejectionRecord(*row)
            self.rejected_count += 1
            self.bytes_rejected += obj.size
            if history is not None:
                history.arrivals.add(now, obj.size, False, obj.creator, obj.object_id, self.name)
                history.rejections.add(*row)
            if _OBS.enabled:
                self._obs_offer(admitted=False, plan=plan, scanned=0, now=now)
            if ledger is not None and ledger.wants(obj.object_id):
                ledger.record(
                    "reject",
                    t=now,
                    obj=obj,
                    unit=self.name,
                    importance=obj.importance_at(now),
                    threshold=plan.blocking_importance,
                    occupancy=self._used_bytes / self.capacity_bytes,
                    reason=plan.reason,
                )
            return AdmissionResult(admitted=False, plan=plan, rejection=rejection)

        # Feasibility is settled before the first eviction, so a stale plan
        # or a buggy policy raises with the store untouched.
        victims = plan.victims
        reclaimable = self.free_bytes
        if victims:
            for victim in victims:
                rec = residents.get(victim.object_id)
                if rec is None or rec.obj is not victim:
                    raise UnknownObjectError(
                        f"admission plan for {obj.object_id!r} names {victim.object_id!r}, "
                        f"which is not stored on {self.name} (stale plan?)"
                    )
                reclaimable += victim.size
            if len(victims) > 1 and len({v.object_id for v in victims}) != len(victims):
                raise UnknownObjectError(
                    f"admission plan for {obj.object_id!r} names a victim twice"
                )
        if obj.size > reclaimable:
            raise CapacityError(
                f"policy {self.policy.name!r} produced an infeasible plan on {self.name}: "
                f"{obj.size} bytes needed, {reclaimable} free after evictions"
            )
        scanned = len(residents) if victims else 0
        if ledger is not None:
            # Pressure and the exact compared importance, captured *before*
            # any victim leaves — this is the context the plan was made in.
            occupancy_at_plan = self._used_bytes / self.capacity_bytes
            incoming = obj.importance_at(now)
            evict_threshold: float | None = incoming if victims else None
        else:
            evict_threshold = None
        evictions = tuple([
            self._evict(
                victim, now, reason="preempted", preempted_by=obj.object_id,
                threshold=evict_threshold,
            )
            for victim in victims
        ])
        self._used_bytes += obj.size
        self.importance_index.add(obj, now)
        self.resident_slab.add(obj)
        self.accepted_count += 1
        self.bytes_accepted += obj.size
        if history is not None:
            history.arrivals.add(now, obj.size, True, obj.creator, obj.object_id, self.name)
        if _OBS.enabled:
            self._obs_offer(admitted=True, plan=plan, scanned=scanned, now=now)
        if ledger is not None and ledger.wants(obj.object_id):
            ledger.record(
                "admit",
                t=now,
                obj=obj,
                unit=self.name,
                importance=incoming,
                threshold=plan.highest_preempted if plan.victims else None,
                occupancy=occupancy_at_plan,
                reason=plan.reason,
                competing=tuple(v.object_id for v in plan.victims),
            )
        return AdmissionResult(admitted=True, plan=plan, evictions=evictions)

    def peek_admission(self, obj: StoredObject, now: float) -> AdmissionPlan:
        """Plan admission without mutating the store.

        Besteffs placement scores the units it samples
        (:meth:`EvictionPolicy.probe`) and calls this on the one it chose,
        so the plan can be checked against the score before it commits;
        it shares ``offer``'s ``store.plan_admission`` phase timing.
        """
        self.advance_clock(now)
        return self._plan(obj, now)

    def _plan(self, obj: StoredObject, now: float) -> AdmissionPlan:
        if not _OBS.enabled:
            return self.policy.plan_admission(self, obj, now)
        t0 = perf_counter()
        plan = self.policy.plan_admission(self, obj, now)
        observe_phase("store.plan_admission", perf_counter() - t0)
        return plan

    def touch(self, object_id: ObjectId, now: float) -> StoredObject:
        """Record an access to a resident (feeds recency baselines)."""
        self.advance_clock(now)
        rec = self._record(object_id)
        rec.last_access = now
        return rec.obj

    def remove(self, object_id: ObjectId, now: float, *, reason: str = "manual") -> EvictionRecord:
        """Explicitly remove a resident (application-driven delete)."""
        self.advance_clock(now)
        victim = self.get(object_id)
        return self._evict(victim, now, reason=reason, preempted_by=None)

    def reclaim_expired(self, now: float) -> tuple[EvictionRecord, ...]:
        """Eagerly drop residents whose annotation has fully expired.

        The paper does *not* require this — expired objects may squat until
        preempted — but delete-optimised deployments (Douglis et al.) sweep
        eagerly, and experiments use this to measure squatting.
        """
        self.advance_clock(now)
        # The index already knows who expired; only those are examined, in
        # admission order (what a scan of the residents would yield).
        expired = self.importance_index.expired_objects(now)
        records = tuple(self._evict(o, now, reason="expired", preempted_by=None) for o in expired)
        if _OBS.enabled:
            self._observe_scan(len(expired))
        return records

    def _evict(
        self,
        victim: StoredObject,
        now: float,
        *,
        reason: str,
        preempted_by: ObjectId | None,
        threshold: float | None = None,
    ) -> EvictionRecord:
        index = self.importance_index
        if victim.object_id not in index.residents:
            raise UnknownObjectError(f"{victim.object_id!r} not stored on {self.name}")
        self._used_bytes -= victim.size
        index.discard(victim.object_id)
        self.resident_slab.discard(victim)
        # One row, in EvictionRecord's field order: logged and built as is.
        row = (
            victim.object_id, victim.creator, victim.size, victim.t_arrival, victim.lifetime,
            now, victim.importance_at(now), reason, preempted_by, self.name,
        )
        record = EvictionRecord(*row)
        self.evicted_count += 1
        self.bytes_evicted += victim.size
        if _OBS.enabled:
            _OBS.registry.counter(
                "store_evictions_total",
                "Objects evicted from storage units.",
                ("unit", "reason"),
            ).inc(unit=self.name, reason=reason)
            ledger = _OBS.audit
            if ledger is not None and ledger.wants(victim.object_id):
                # ``threshold`` is the preemptor's incoming importance —
                # the comparison this victim lost.  Occupancy is restored
                # to its pre-eviction value (decision-time pressure).
                ledger.record(
                    "expire" if reason == "expired" else "evict",
                    t=now,
                    obj=victim,
                    unit=self.name,
                    importance=record.importance_at_eviction,
                    threshold=threshold,
                    occupancy=(self._used_bytes + victim.size) / self.capacity_bytes,
                    reason=reason,
                    preempted_by=preempted_by,
                )
        if self.history is not None:
            self.history.evictions.add(*row)
        if self.on_eviction is not None:
            self.on_eviction(record)
        return record

    def _observe_scan(self, scanned: int) -> None:
        _OBS.registry.histogram(
            "store_reclaim_scan_length",
            "Residents examined per reclamation pass (admission planning or expiry sweep).",
            ("unit",),
            buckets=COUNT_BUCKETS,
        ).observe(scanned, unit=self.name)

    def _obs_offer(
        self, *, admitted: bool, plan: AdmissionPlan, scanned: int, now: float
    ) -> None:
        """Record admission-path metrics; called only when obs is enabled."""
        registry = _OBS.registry
        registry.counter(
            "store_admissions_total",
            "Admission outcomes per storage unit.",
            ("unit", "outcome"),
        ).inc(unit=self.name, outcome="admitted" if admitted else "rejected")
        if admitted:
            registry.histogram(
                "store_preemption_depth",
                "Victims preempted per admitted object.",
                ("unit",),
                buckets=COUNT_BUCKETS,
            ).observe(len(plan.victims), unit=self.name)
            if plan.victims:
                self._observe_scan(scanned)
        else:
            _OBS.logger.debug(
                "store",
                "reject",
                sim_time=now,
                unit=self.name,
                reason=plan.reason,
                blocking_importance=plan.blocking_importance,
            )

    def __repr__(self) -> str:
        return (
            f"StorageUnit(name={self.name!r}, policy={self.policy.name!r}, "
            f"used={self._used_bytes}/{self.capacity_bytes} bytes, "
            f"residents={len(self.importance_index.residents)})"
        )

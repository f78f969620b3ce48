"""A single storage unit with preemptive admission (paper Section 3).

:class:`StorageUnit` owns the residents, enforces the capacity invariant,
executes admission plans atomically and emits structured
:class:`EvictionRecord` / rejection events that the simulation recorder and
the analysis layer consume.  All temporal reasoning is delegated to the
objects' importance functions; the unit itself is clock-free and takes
``now`` on every call, which makes it usable both from the discrete-time
simulator and directly from library users' code.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator

from repro.core.index import ImportanceIndex, Resident
from repro.core.obj import ObjectId, StoredObject
from repro.core.policy import AdmissionPlan, EvictionPolicy
from repro.core.slab import ResidentSlab
from repro.errors import CapacityError, SimulationError, UnknownObjectError
from repro.obs import COUNT_BUCKETS, STATE as _OBS, observe_phase

__all__ = [
    "EvictionRecord",
    "RejectionRecord",
    "AdmissionResult",
    "StorageUnit",
    "StoreStats",
]


def _require_time(now: float) -> None:
    """Refuse a NaN clock before it reaches any state (it never compares)."""
    if now != now:
        raise SimulationError("storage unit operations need a time, got NaN")


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


@dataclass(frozen=True)
class EvictionRecord:
    """One object leaving a storage unit.

    ``achieved_lifetime`` (minutes the object actually survived) and
    ``importance_at_eviction`` are the paper's two headline per-object
    metrics (Figures 3, 9 and 10).
    """

    obj: StoredObject
    t_evicted: float
    importance_at_eviction: float
    reason: str  # "preempted" | "expired" | "manual"
    preempted_by: ObjectId | None = None
    unit: str = ""

    @property
    def achieved_lifetime(self) -> float:
        """Minutes between arrival and eviction."""
        return self.t_evicted - self.obj.t_arrival

    @property
    def requested_lifetime(self) -> float:
        """Minutes of lifetime the annotation asked for (``t_expire``)."""
        return self.obj.lifetime.t_expire


@dataclass(frozen=True)
class RejectionRecord:
    """One arrival turned away because the store was full for its importance."""

    obj: StoredObject
    t_rejected: float
    blocking_importance: float | None
    reason: str
    unit: str = ""


@dataclass(frozen=True)
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
        When True (default) every eviction and rejection record is retained
        in :attr:`evictions` / :attr:`rejections`.  Long multi-year
        simulations with external recorders can disable retention and rely
        on the ``on_eviction`` / ``on_rejection`` callbacks instead.

    Every unit books each resident once, as a
    :class:`~repro.core.index.Resident` record in its
    :class:`~repro.core.index.ImportanceIndex` (:attr:`importance_index`):
    membership, admission order and last access are read from its table,
    and its phase buckets and victim sources answer admission victims,
    density mass and the expired set, all bit-identical to a full scan of
    the residents.  A :class:`~repro.core.slab.ResidentSlab`
    (:attr:`resident_slab`) keeps the per-creator byte totals.  There is
    no other configuration; the full-scan reference the differential
    suites compare against lives in ``tests/oracles``.  Every method that
    takes ``now`` refuses a NaN one before changing anything.
    """

    def __init__(
        self,
        capacity_bytes: int,
        policy: EvictionPolicy,
        *,
        name: str = "unit-0",
        keep_history: bool = True,
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
        self.keep_history = keep_history
        #: The residents' records, phase-bucketed (victims, density mass,
        #: expiry, last access).
        self.importance_index = ImportanceIndex()
        #: Per-creator byte totals of the residents.
        self.resident_slab = ResidentSlab()
        self._used_bytes = 0

        #: Retained event history (see ``keep_history``).
        self.evictions: list[EvictionRecord] = []
        self.rejections: list[RejectionRecord] = []

        #: Monotonic counters, always maintained regardless of history mode.
        self.accepted_count = 0
        self.rejected_count = 0
        self.evicted_count = 0
        self.bytes_accepted = 0
        self.bytes_evicted = 0
        self.bytes_rejected = 0

        #: Optional observers invoked synchronously on each event.
        self.on_eviction: Callable[[EvictionRecord], None] | None = None
        self.on_rejection: Callable[[RejectionRecord], None] | None = None

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
        """
        _require_time(now)
        residents = self.importance_index.residents
        if obj.object_id in residents:
            raise CapacityError(f"{obj.object_id!r} is already stored on {self.name}")
        if plan is None:
            plan = self._plan(obj, now)
        ledger = _OBS.audit if _OBS.enabled else None
        if not plan.admit:
            rejection = RejectionRecord(
                obj=obj,
                t_rejected=now,
                blocking_importance=plan.blocking_importance,
                reason=plan.reason,
                unit=self.name,
            )
            self.rejected_count += 1
            self.bytes_rejected += obj.size
            if self.keep_history:
                self.rejections.append(rejection)
            if self.on_rejection is not None:
                self.on_rejection(rejection)
            if _OBS.enabled:
                self._obs_offer(admitted=False, plan=plan, scanned=0, now=now)
            if ledger is not None and ledger.wants(obj.object_id):
                incoming = plan.incoming_importance
                ledger.record(
                    "reject",
                    t=now,
                    obj=obj,
                    unit=self.name,
                    importance=obj.importance_at(now) if incoming is None else incoming,
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
            incoming = plan.incoming_importance
            if incoming is None:
                incoming = obj.importance_at(now)
            evict_threshold: float | None = incoming if victims else None
        else:
            evict_threshold = None
        evictions = tuple(
            self._evict(
                victim, now, reason="preempted", preempted_by=obj.object_id,
                threshold=evict_threshold,
            )
            for victim in victims
        )
        self._used_bytes += obj.size
        self.importance_index.add(obj, now)
        self.resident_slab.add(obj)
        self.accepted_count += 1
        self.bytes_accepted += obj.size
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
        _require_time(now)
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
        _require_time(now)
        rec = self._record(object_id)
        rec.last_access = now
        return rec.obj

    def remove(self, object_id: ObjectId, now: float, *, reason: str = "manual") -> EvictionRecord:
        """Explicitly remove a resident (application-driven delete)."""
        _require_time(now)
        victim = self.get(object_id)
        return self._evict(victim, now, reason=reason, preempted_by=None)

    def reclaim_expired(self, now: float) -> tuple[EvictionRecord, ...]:
        """Eagerly drop residents whose annotation has fully expired.

        The paper does *not* require this — expired objects may squat until
        preempted — but delete-optimised deployments (Douglis et al.) sweep
        eagerly, and experiments use this to measure squatting.
        """
        _require_time(now)
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
        record = EvictionRecord(
            obj=victim,
            t_evicted=now,
            importance_at_eviction=victim.importance_at(now),
            reason=reason,
            preempted_by=preempted_by,
            unit=self.name,
        )
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
        if self.keep_history:
            self.evictions.append(record)
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
        registry.gauge(
            "store_occupancy_ratio",
            "Fraction of raw capacity occupied.",
            ("unit",),
        ).set(self._used_bytes / self.capacity_bytes, unit=self.name)
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

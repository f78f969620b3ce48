"""A Besteffs storage brick.

A node pairs a :class:`~repro.core.store.StorageUnit` (always running the
temporal-importance policy — that is the Besteffs admission rule) with a
stable node id used by the overlay, and exposes the placement *probe*: the
highest importance that admitting a given object would preempt, as a score
(no admission plan is built until a unit is chosen).
"""

from __future__ import annotations

from time import perf_counter

from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.policy import EvictionPolicy
from repro.core.store import AdmissionResult, StorageUnit
from repro.errors import CapacityError
from repro.obs import STATE as _OBS, observe_phase

__all__ = ["BesteffsNode"]


class BesteffsNode:
    """One desktop/brick participating in the Besteffs cluster."""

    def __init__(
        self,
        node_id: str,
        capacity_bytes: int,
        *,
        policy: EvictionPolicy | None = None,
    ) -> None:
        if not node_id:
            raise CapacityError("node_id must be non-empty")
        self.node_id = node_id
        self.store = StorageUnit(
            capacity_bytes,
            policy if policy is not None else TemporalImportancePolicy(),
            name=node_id,
        )

    @property
    def capacity_bytes(self) -> int:
        return self.store.capacity_bytes

    @property
    def used_bytes(self) -> int:
        return self.store.used_bytes

    @property
    def free_bytes(self) -> int:
        return self.store.free_bytes

    def probe(
        self, obj: StoredObject, now: float, incoming: float | None = None
    ) -> tuple[bool, float]:
        """Non-mutating admission probe (Section 5.3's per-unit check): the
        policy's score ``(admissible, highest_preempted)``, not a plan
        (:meth:`EvictionPolicy.probe`); 0.0 preempted is a direct store.
        ``incoming`` is ``obj.importance_at(now)``, once per offer."""
        if incoming is None:
            incoming = obj.importance_at(now)
        store = self.store
        if not _OBS.enabled:
            return store.policy.probe(store, obj, now, incoming)
        t0 = perf_counter()
        score = store.policy.probe(store, obj, now, incoming)
        observe_phase("store.plan_admission", perf_counter() - t0)
        return score

    def accept(self, obj: StoredObject, now: float) -> AdmissionResult:
        """Store the object on this node (may preempt residents)."""
        return self.store.offer(obj, now)

    def __repr__(self) -> str:
        return (
            f"BesteffsNode({self.node_id!r}, used={self.used_bytes}/"
            f"{self.capacity_bytes})"
        )

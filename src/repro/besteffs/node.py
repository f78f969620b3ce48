"""A Besteffs storage brick.

A node pairs a :class:`~repro.core.store.StorageUnit` (always running the
temporal-importance policy — that is the Besteffs admission rule) with a
stable node id used by the overlay, and exposes the placement *probe*: the
highest importance that admitting a given object would preempt, as a score
(no admission plan is built until a unit is chosen).
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple

from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.policy import EvictionPolicy
from repro.core.store import AdmissionResult, StorageUnit
from repro.errors import CapacityError
from repro.obs import STATE as _OBS, observe_phase

__all__ = ["BesteffsNode", "ProbeResult"]


class ProbeResult(NamedTuple):
    """Outcome of probing one node for one object.

    ``admissible`` is True when the node could accept the object right now;
    ``highest_preempted`` is then the importance the placement rule
    minimises (0.0 when the object fits in free/expired space).
    """

    node_id: str
    admissible: bool
    highest_preempted: float

    @property
    def direct(self) -> bool:
        """True when storing displaces nothing live (the rule's fast path)."""
        return self.admissible and self.highest_preempted == 0.0


class BesteffsNode:
    """One desktop/brick participating in the Besteffs cluster."""

    def __init__(
        self,
        node_id: str,
        capacity_bytes: int,
        *,
        policy: EvictionPolicy | None = None,
        keep_history: bool = True,
    ) -> None:
        if not node_id:
            raise CapacityError("node_id must be non-empty")
        self.node_id = node_id
        self.store = StorageUnit(
            capacity_bytes,
            policy if policy is not None else TemporalImportancePolicy(),
            name=node_id,
            keep_history=keep_history,
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
    ) -> ProbeResult:
        """Non-mutating admission probe (Section 5.3's per-unit check): a
        score, not a plan (:meth:`EvictionPolicy.probe`).  ``incoming`` is
        ``obj.importance_at(now)``; placement computes it once per offer."""
        if incoming is None:
            incoming = obj.importance_at(now)
        t0 = perf_counter() if _OBS.enabled else 0.0
        admissible, highest = self.store.policy.probe(self.store, obj, now, incoming)
        if _OBS.enabled:
            observe_phase("store.plan_admission", perf_counter() - t0)
        return ProbeResult(self.node_id, admissible, highest)

    def accept(self, obj: StoredObject, now: float) -> AdmissionResult:
        """Store the object on this node (may preempt residents)."""
        return self.store.offer(obj, now)

    def __repr__(self) -> str:
        return (
            f"BesteffsNode({self.node_id!r}, used={self.used_bytes}/"
            f"{self.capacity_bytes})"
        )

"""The paper's temporal-importance eviction policy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.admission import plan_preemptive_admission
from repro.core.obj import StoredObject
from repro.core.policy import AdmissionPlan, EvictionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import StorageUnit

__all__ = ["TemporalImportancePolicy"]


@dataclass
class TemporalImportancePolicy(EvictionPolicy):
    """Preempt strictly less important residents (paper Section 3).

    Victims are taken in increasing current importance, ties broken by
    remaining lifetime; the object is admitted only if the most important
    victim has strictly lower current importance than the incoming object
    (or zero, in which case only dead weight is displaced).  Otherwise the
    unit is *full for this object's importance level* and nothing changes.

    ``strict=False`` relaxes the comparison to "not higher" — an ablation
    knob measured by ``benchmarks/test_ablation_victim_order.py``; the
    paper's semantics correspond to the default ``strict=True``.
    """

    strict: bool = True

    def __post_init__(self) -> None:
        self.name = "temporal-importance" if self.strict else "temporal-importance-lax"

    def plan_admission(
        self, store: "StorageUnit", obj: StoredObject, now: float
    ) -> AdmissionPlan:
        return plan_preemptive_admission(store, obj, now, strict=self.strict)

    def probe(
        self, store: "StorageUnit", obj: StoredObject, now: float, incoming: float
    ) -> tuple[bool, float]:
        # plan_preemptive_admission's guards in its order, then the index's
        # score of the plan it would build (cached floor or merge); the plan
        # itself only when the pool runs dry.
        store.advance_clock(now, decision=True)
        if obj.size > store.capacity_bytes:
            return False, 0.0
        needed = obj.size - store.free_bytes
        if needed <= 0:
            return True, 0.0
        scored = store.importance_index.preempted_floor(now, needed, incoming, self.strict)
        return scored or super().probe(store, obj, now, incoming)

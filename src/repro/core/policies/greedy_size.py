"""Size-weighted victim ordering — the ablation the paper declines.

Section 5.3 notes that the *highest importance object preempted* is **not**
weighted by size: a unit can lose the comparison because of a tiny
high-importance object that contributes 1 % of the required space.  This
policy measures the alternative: among similar importance, prefer evicting
larger objects first (fewer victims, lower disturbance), and compare the
incoming object against the *size-weighted mean* importance of the victim
set instead of its maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.obj import StoredObject
from repro.core.policy import FREE_SPACE_PLAN, AdmissionPlan, EvictionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import StorageUnit

__all__ = ["GreedySizePolicy"]

#: Importance values within one bucket (2 %) are treated as equivalent when
#: deciding that a larger object should go first.
_BUCKET = 0.02


@dataclass
class GreedySizePolicy(EvictionPolicy):
    """Preempt by (importance bucket asc, size desc); admit on weighted mean."""

    strict: bool = True

    def __post_init__(self) -> None:
        self.name = "greedy-size"

    def plan_admission(
        self, store: "StorageUnit", obj: StoredObject, now: float
    ) -> AdmissionPlan:
        too_large = self._too_large(store, obj)
        if too_large is not None:
            return too_large
        if self._fits_free(store, obj):
            return FREE_SPACE_PLAN

        needed = obj.size - store.free_bytes
        ordered = sorted(
            store.iter_residents(),
            key=lambda o: (
                int(o.importance_at(now) / _BUCKET),
                -o.size,
                o.t_arrival,
                o.object_id,
            ),
        )
        victims = self._greedy_victims(ordered, needed)
        if sum(v.size for v in victims) < needed:
            return AdmissionPlan(admit=False, reason="insufficient-space")
        total = sum(v.size for v in victims)
        weighted = sum(v.importance_at(now) * v.size for v in victims) / total
        highest = max(v.importance_at(now) for v in victims)
        incoming = obj.importance_at(now)
        blocked = weighted >= incoming if self.strict else weighted > incoming
        if weighted > 0.0 and blocked:
            return AdmissionPlan(
                admit=False,
                highest_preempted=highest,
                blocking_importance=weighted,
                reason="full-for-importance",
            )
        reason = "expired-only" if highest == 0.0 else "preempt"
        return AdmissionPlan(
            admit=True, victims=victims, highest_preempted=highest, reason=reason
        )

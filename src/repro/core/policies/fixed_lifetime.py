"""Lifetime-without-temporal-importance baseline (paper Section 5.1).

Every accepted object is guaranteed its full annotated lifetime: only
residents whose annotation has completely expired (current importance zero)
may be displaced.  Under pressure this policy therefore rejects many more
arrivals than the temporal policy — the key trade-off Figure 4 plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.obj import StoredObject
from repro.core.policy import FREE_SPACE_PLAN, AdmissionPlan, EvictionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import StorageUnit

__all__ = ["FixedLifetimePolicy"]


@dataclass
class FixedLifetimePolicy(EvictionPolicy):
    """Admit only when free space plus *expired* residents suffice.

    Expired victims are reclaimed oldest-expiry first so that the policy's
    behaviour is deterministic and the squatting duration of dead objects
    is maximised uniformly.
    """

    def __post_init__(self) -> None:
        self.name = "no-importance"

    def plan_admission(
        self, store: "StorageUnit", obj: StoredObject, now: float
    ) -> AdmissionPlan:
        too_large = self._too_large(store, obj)
        if too_large is not None:
            return too_large
        if self._fits_free(store, obj):
            return FREE_SPACE_PLAN

        needed = obj.size - store.free_bytes
        expired = sorted(
            (o for o in store.iter_residents() if o.is_expired_at(now)),
            key=lambda o: (o.t_expire_abs, o.t_arrival, o.object_id),
        )
        victims = self._greedy_victims(expired, needed)
        if sum(v.size for v in victims) < needed:
            # Live residents block the arrival: the lowest live importance
            # is the level an incoming object would have to preempt, which
            # this policy never allows.
            live = [
                o.importance_at(now)
                for o in store.iter_residents()
                if not o.is_expired_at(now)
            ]
            blocking = min(live) if live else None
            return AdmissionPlan(
                admit=False, blocking_importance=blocking, reason="full-live-objects"
            )
        return AdmissionPlan(
            admit=True, victims=victims, highest_preempted=0.0, reason="expired-only"
        )

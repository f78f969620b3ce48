"""Least-recently-used baseline.

Not evaluated in the paper, but the natural cache comparator (the related
work surveys web-cache replacement): evict the resident whose last access
is oldest.  Arrival counts as an access; reads recorded via
:meth:`~repro.core.store.StorageUnit.touch` refresh recency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.obj import StoredObject
from repro.core.policy import FREE_SPACE_PLAN, AdmissionPlan, EvictionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import StorageUnit

__all__ = ["LRUPolicy"]


@dataclass
class LRUPolicy(EvictionPolicy):
    """Evict least-recently-accessed first; never reject."""

    def __post_init__(self) -> None:
        self.name = "lru"

    def plan_admission(
        self, store: "StorageUnit", obj: StoredObject, now: float
    ) -> AdmissionPlan:
        too_large = self._too_large(store, obj)
        if too_large is not None:
            return too_large
        if self._fits_free(store, obj):
            return FREE_SPACE_PLAN
        needed = obj.size - store.free_bytes
        by_recency = sorted(
            store.iter_residents(),
            key=lambda o: (store.last_access(o.object_id), o.t_arrival, o.object_id),
        )
        victims = self._greedy_victims(by_recency, needed)
        highest = max(v.importance_at(now) for v in victims)
        return AdmissionPlan(
            admit=True, victims=victims, highest_preempted=highest, reason="lru-overwrite"
        )

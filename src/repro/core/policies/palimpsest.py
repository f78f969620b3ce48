"""Palimpsest-style FIFO reclamation (Roscoe & Hand, HotOS 2003).

Palimpsest treats all data as ephemeral soft-capacity storage: incoming
writes silently overwrite the oldest data, storage is never "full", and any
persistence must be achieved by the *application* refreshing its objects
before the FIFO sweep reaches them.  The paper uses it as the
no-system-guarantees baseline (Sections 5.1–5.2) and shows its time
constant — the sojourn an application must predict — is hard to estimate
(:mod:`repro.analysis.timeconstant`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.obj import StoredObject
from repro.core.policy import FREE_SPACE_PLAN, AdmissionPlan, EvictionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import StorageUnit

__all__ = ["PalimpsestPolicy"]


@dataclass
class PalimpsestPolicy(EvictionPolicy):
    """Evict oldest-arrival-first; never reject (except oversized objects).

    The paper's FIFO baseline, under the name its tables use.
    """

    def __post_init__(self) -> None:
        self.name = "palimpsest"

    def plan_admission(
        self, store: "StorageUnit", obj: StoredObject, now: float
    ) -> AdmissionPlan:
        too_large = self._too_large(store, obj)
        if too_large is not None:
            return too_large
        if self._fits_free(store, obj):
            return FREE_SPACE_PLAN
        needed = obj.size - store.free_bytes
        by_age = sorted(
            store.iter_residents(), key=lambda o: (o.t_arrival, o.object_id)
        )
        victims = self._greedy_victims(by_age, needed)
        highest = max(v.importance_at(now) for v in victims)
        return AdmissionPlan(
            admit=True, victims=victims, highest_preempted=highest, reason="fifo-overwrite"
        )

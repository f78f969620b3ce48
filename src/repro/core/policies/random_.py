"""Random-replacement baseline.

Evicts uniformly random residents until the arrival fits.  Useful as a
statistical floor in ablation benchmarks.  The policy carries its own
:class:`random.Random` so simulations stay reproducible; because of that
internal state a :class:`RandomPolicy` instance should *not* be shared
between storage units that are expected to behave independently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.obj import StoredObject
from repro.core.policy import AdmissionPlan, EvictionPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import StorageUnit

__all__ = ["RandomPolicy"]


@dataclass
class RandomPolicy(EvictionPolicy):
    """Evict uniformly random residents; never reject."""

    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.name = "random"
        self._rng = random.Random(self.seed)

    def plan_admission(
        self, store: "StorageUnit", obj: StoredObject, now: float
    ) -> AdmissionPlan:
        too_large = self._too_large(store, obj)
        if too_large is not None:
            return too_large
        if self._fits_free(store, obj):
            return AdmissionPlan(admit=True, reason="free-space")
        needed = obj.size - store.free_bytes
        residents = sorted(store.iter_residents(), key=lambda o: o.object_id)
        self._rng.shuffle(residents)
        victims = self._greedy_victims(residents, needed)
        highest = max(v.importance_at(now) for v in victims)
        return AdmissionPlan(
            admit=True, victims=victims, highest_preempted=highest, reason="random-overwrite"
        )

    def probe(
        self, store: "StorageUnit", obj: StoredObject, now: float, incoming: float
    ) -> tuple[bool, float]:
        # Rewind the draws: the plan that commits must be the plan scored.
        state = self._rng.getstate()
        try:
            return super().probe(store, obj, now, incoming)
        finally:
            self._rng.setstate(state)

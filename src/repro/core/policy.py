"""Eviction-policy protocol shared by all reclamation strategies.

A policy answers exactly one question: *given the current residents of a
storage unit, an incoming object, and the current time, which residents (if
any) must be preempted, and is the store "full" for this object?*  The
:class:`~repro.core.store.StorageUnit` owns all mutation; policies are pure
planners, which keeps them trivially testable and lets the Besteffs
placement layer score a unit (:meth:`EvictionPolicy.probe`) without
planning it — Section 5.3's ``highest importance object preempted`` probe.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro._values import slot_init
from repro.core.obj import StoredObject

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.store import StorageUnit

__all__ = ["FREE_SPACE_PLAN", "TOO_LARGE_PLAN", "AdmissionPlan", "EvictionPolicy"]


@slot_init
@dataclass(frozen=True, slots=True)
class AdmissionPlan:
    """The outcome of planning admission for one object on one unit.

    Attributes
    ----------
    admit:
        Whether the object can be stored right now.
    victims:
        Residents that must be preempted to make room, in eviction order.
        Empty when the object fits into free space or when rejected.
    highest_preempted:
        Current importance of the most important victim (0.0 when no victim
        is needed).  This is the scalar the distributed placement algorithm
        minimises across candidate units.
    blocking_importance:
        On rejection, the importance level that blocked admission — i.e.
        the importance the incoming object would have to *exceed*.  ``None``
        when admitted or when the object simply exceeds raw capacity.
    reason:
        Short machine-readable cause: ``"free-space"``, ``"preempt"``,
        ``"full-for-importance"``, ``"object-too-large"``, ``"expired-only"``
        (policy-specific strings are allowed).
    """

    admit: bool
    victims: tuple[StoredObject, ...] = ()
    highest_preempted: float = 0.0
    blocking_importance: float | None = None
    reason: str = ""


#: The plans of every free-space admit and every oversize refusal: shared,
#: not built per probe (a plan is frozen, so nobody can tell them apart).
FREE_SPACE_PLAN = AdmissionPlan(admit=True, reason="free-space")
TOO_LARGE_PLAN = AdmissionPlan(admit=False, reason="object-too-large")


@dataclass
class EvictionPolicy(ABC):
    """Strategy interface for planning admissions.

    Subclasses override :meth:`plan_admission` (and may override
    :meth:`probe`); they must not mutate the store.  A policy instance may
    be shared between storage units as long as it is stateless (all built-in
    policies are).
    """

    #: Human-readable policy name used in reports and experiment tables.
    name: str = field(default="policy", init=False)

    @abstractmethod
    def plan_admission(
        self, store: "StorageUnit", obj: StoredObject, now: float
    ) -> AdmissionPlan:
        """Plan how (whether) ``obj`` would be admitted at time ``now``."""

    def probe(
        self, store: "StorageUnit", obj: StoredObject, now: float, incoming: float
    ) -> tuple[bool, float]:
        """Score ``obj`` on ``store``: ``(plan.admit, plan.highest_preempted)``.

        Section 5.3's placement probe; ``incoming`` is
        ``obj.importance_at(now)``, computed once per offer.  The default
        plans in full.  An override may stop short of the plan: on a
        refusal the score is only a lower bound on the blocker, and the
        temporal policy's cached floor reports ``incoming`` itself.  But the
        plan built next must bear an admissible score out bit for bit, or
        :meth:`BesteffsCluster.offer` refuses to commit it.  ``now`` moves
        the unit's clock (:meth:`StorageUnit.advance_clock`).
        """
        store.advance_clock(now)
        plan = self.plan_admission(store, obj, now)
        return plan.admit, plan.highest_preempted

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def _too_large(store: "StorageUnit", obj: StoredObject) -> AdmissionPlan | None:
        """Common guard: an object larger than raw capacity never fits."""
        if obj.size > store.capacity_bytes:
            return TOO_LARGE_PLAN
        return None

    @staticmethod
    def _fits_free(store: "StorageUnit", obj: StoredObject) -> bool:
        return obj.size <= store.free_bytes

    @staticmethod
    def _greedy_victims(
        ordered: Sequence[StoredObject], needed_bytes: int
    ) -> tuple[StoredObject, ...]:
        """Take residents from ``ordered`` until ``needed_bytes`` are freed.

        Returns the (possibly complete) prefix of ``ordered`` whose sizes
        sum to at least ``needed_bytes``; callers must check sufficiency.
        """
        victims: list[StoredObject] = []
        freed = 0
        for resident in ordered:
            if freed >= needed_bytes:
                break
            victims.append(resident)
            freed += resident.size
        return tuple(victims)

"""Shared preemptive-admission planning (paper Sections 3 and 5.3).

The temporal-importance admission rule is used verbatim by the single-unit
temporal policy and by every Besteffs storage brick, so it lives here once:

1. Sort residents by increasing *current* importance, breaking ties by
   increasing remaining lifetime (the per-unit ordering of Section 5.3).
   Expired residents have importance zero and sort first.
2. Greedily mark victims from the front of that order until the incoming
   object fits into ``free space + reclaimed space``.
3. Find the *highest importance object that will be preempted*.  If it is
   zero the object stores directly (only dead weight is displaced).  If it
   is **not strictly lower** than the incoming object's current importance,
   the unit is *full for this object* and nothing is evicted.

The rule is deliberately not size-weighted: the paper notes the highest
preempted importance is compared even if only 1 % of the required space
comes from that object (see :class:`~repro.core.policies.greedy_size.
GreedySizePolicy` for the ablation that does weight by size).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.obj import StoredObject
from repro.core.policy import AdmissionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import StorageUnit

__all__ = ["importance_order", "plan_preemptive_admission"]

VictimOrder = Callable[[Iterable[StoredObject], float], list[StoredObject]]


def importance_order(residents: Iterable[StoredObject], now: float) -> list[StoredObject]:
    """Paper ordering: increasing current importance, then remaining lifetime.

    A stable third key (arrival time, then id) makes the simulation fully
    deterministic even when many objects share importance and expiry.
    """
    return sorted(
        residents,
        key=lambda o: (
            o.importance_at(now),
            o.remaining_lifetime_at(now),
            o.t_arrival,
            o.object_id,
        ),
    )


def plan_preemptive_admission(
    store: "StorageUnit",
    obj: StoredObject,
    now: float,
    *,
    order: VictimOrder = importance_order,
    strict: bool = True,
) -> AdmissionPlan:
    """Plan admission of ``obj`` under the temporal-importance rule.

    Parameters
    ----------
    store:
        The storage unit whose residents are inspected (never mutated).
    obj:
        Incoming object; its *current* importance at ``now`` is what
        competes with residents.
    now:
        Absolute simulation time in minutes.
    order:
        Victim-ordering function; the default is the paper's
        importance-then-remaining-lifetime order.  Ablations substitute a
        size-aware order here.
    strict:
        When True (paper semantics) a victim may only be preempted by a
        *strictly* more important object.  ``strict=False`` relaxes this to
        >=, which is measured by the victim-ordering ablation.
    """
    if obj.size > store.capacity_bytes:
        return AdmissionPlan(admit=False, reason="object-too-large")
    free = store.free_bytes
    if obj.size <= free:
        return AdmissionPlan(admit=True, reason="free-space")

    needed = obj.size - free
    # The index's victim structures encode the paper ordering; an ablation's
    # own order sorts every resident.
    paper_order = order is importance_order
    index = store.importance_index
    merged = index.greedy_victims(now, needed) if paper_order else None
    if merged is not None:
        # Lazy k-way merge over the expired stream, statically ordered
        # annotation groups and integer-grid superfamilies: only merge heads
        # have their keys evaluated, and the resulting prefix (and its max
        # importance) is bit-identical to the full paper-order sort (see
        # repro.core.victims for the argument).
        victims, highest, freed = merged
        if freed < needed:
            # Cannot happen when obj.size <= capacity, but guard against
            # stores whose accounting was corrupted externally.
            return AdmissionPlan(admit=False, reason="insufficient-space")
    else:
        # The merge declined (superfamily exactness not guaranteed at this
        # now) or was not asked: sort candidates instead.
        candidates: Iterable[StoredObject] = (
            index.victim_candidates(now, needed) if paper_order else store.iter_residents()
        )
        ordered = order(candidates, now)
        victims = []
        freed = 0
        for resident in ordered:
            if freed >= needed:
                break
            victims.append(resident)
            freed += resident.size
        if freed < needed:
            return AdmissionPlan(admit=False, reason="insufficient-space")
        highest = max(victim.importance_at(now) for victim in victims)
    incoming = obj.importance_at(now)
    blocked = highest >= incoming if strict else highest > incoming
    if highest > 0.0 and blocked:
        return AdmissionPlan(
            admit=False,
            highest_preempted=highest,
            blocking_importance=highest,
            reason="full-for-importance",
            incoming_importance=incoming,
        )
    reason = "expired-only" if highest == 0.0 else "preempt"
    return AdmissionPlan(
        admit=True,
        victims=tuple(victims),
        highest_preempted=highest,
        reason=reason,
        incoming_importance=incoming,
    )

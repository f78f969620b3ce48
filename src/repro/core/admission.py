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

from typing import TYPE_CHECKING

from repro.core.obj import StoredObject
from repro.core.policy import FREE_SPACE_PLAN, TOO_LARGE_PLAN, AdmissionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import StorageUnit

__all__ = ["plan_preemptive_admission"]


def plan_preemptive_admission(
    store: "StorageUnit",
    obj: StoredObject,
    now: float,
    *,
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
        Absolute simulation time in minutes: a decision time of the unit's
        clock (a whole minute, never before an earlier one).
    strict:
        When True (paper semantics) a victim may only be preempted by a
        *strictly* more important object.  ``strict=False`` relaxes this to
        >=, which is measured by the victim-ordering ablation.
    """
    if obj.size > store.capacity_bytes:
        return TOO_LARGE_PLAN
    free = store.free_bytes
    if obj.size <= free:
        return FREE_SPACE_PLAN

    needed = obj.size - free
    # Lazy k-way merge over the expired stream, statically ordered annotation
    # groups and integer-grid superfamilies: only merge heads have their keys
    # evaluated, and the resulting prefix (and its max importance) is
    # bit-identical to the full paper-order sort (see repro.core.victims for
    # the argument).
    victims, highest, freed = store.importance_index.greedy_victims(now, needed)
    if freed < needed:
        # Cannot happen when obj.size <= capacity, but guard against
        # stores whose accounting was corrupted externally.
        return AdmissionPlan(admit=False, reason="insufficient-space")
    incoming = obj.importance_at(now)
    blocked = highest >= incoming if strict else highest > incoming
    if highest > 0.0 and blocked:
        return AdmissionPlan(
            admit=False,
            highest_preempted=highest,
            blocking_importance=highest,
            reason="full-for-importance",
        )
    reason = "expired-only" if highest == 0.0 else "preempt"
    return AdmissionPlan(
        admit=True,
        victims=tuple(victims),
        highest_preempted=highest,
        reason=reason,
    )

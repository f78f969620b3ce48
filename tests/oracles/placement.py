"""The Section 5.3 placement rule with a full admission plan per probe.

This is the loop ``repro.besteffs.placement._choose_unit`` ran before
probes became scores: every sampled unit builds the ``AdmissionPlan``
admitting the object would execute (``StorageUnit.peek_admission``), and
the rule compares ``plan.highest_preempted``.  All but the winner's plan
are thrown away, which is why ``src/`` no longer does it — but it is the
definition the score probe must reproduce, decision for decision and RNG
draw for RNG draw, so it is kept here as the reference.
"""

from __future__ import annotations

import random
from typing import Mapping

from repro.besteffs import placement
from repro.besteffs.node import BesteffsNode
from repro.besteffs.overlay import Overlay
from repro.besteffs.placement import PlacementConfig, PlacementDecision
from repro.core.obj import StoredObject

__all__ = ["choose_unit_by_plans"]


def choose_unit_by_plans(
    nodes: Mapping[str, BesteffsNode],
    overlay: Overlay,
    obj: StoredObject,
    now: float,
    *,
    config: PlacementConfig,
    rng: random.Random,
    start_node: str | None = None,
) -> tuple[PlacementDecision, BesteffsNode | None]:
    """Drop-in for ``choose_unit`` on a cluster whose overlay is current."""
    origin = start_node if start_node is not None else rng.choice(overlay.node_ids)
    best_score = float("inf")
    best_node: BesteffsNode | None = None
    probed_total = 0
    for round_no in range(1, config.m + 1):
        # Lazy like the rule it defines: a round walks only until it decides
        # (looked up at call time, so the eager sampler can be patched in).
        sampled = placement.walk_endpoints(
            overlay, origin, config.x, rng, walk_length=config.walk_length
        )
        for node_id in sampled:
            node = nodes[node_id]
            plan = node.store.peek_admission(obj, now)
            probed_total += 1
            if not plan.admit:
                continue
            if plan.highest_preempted == 0.0:
                return (
                    PlacementDecision(True, node_id, round_no, probed_total, 0.0, "direct"),
                    node,
                )
            if plan.highest_preempted < best_score:
                best_score = plan.highest_preempted
                best_node = node
    if best_node is None:
        return (
            PlacementDecision(False, None, config.m, probed_total, float("inf"), "all-full"),
            None,
        )
    return (
        PlacementDecision(
            True, best_node.node_id, config.m, probed_total, best_score, "lowest-preempted"
        ),
        best_node,
    )

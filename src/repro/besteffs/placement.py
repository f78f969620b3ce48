"""The Section 5.3 placement rule.

To store an object, the reclamation algorithm:

1. randomly picks ``x`` storage units (random walks on the overlay);
2. probes each for the **highest importance object that will be
   preempted** were the object stored there;
3. stores *directly* on any probed unit whose highest preempted importance
   is zero (only free space / expired residents are displaced);
4. marks a unit *full for this object* when its highest preempted
   importance is not lower than the object's current importance;
5. otherwise retries for up to ``m`` successive rounds and finally picks
   the admissible unit with the **lowest** highest-preempted importance.

The comparison is deliberately *not* size-weighted (the paper calls this
out explicitly), so a probe is a score — ``(admissible, highest preempted
importance)`` — and no unit builds an admission plan until it is chosen.
An offer every unit would refuse is refused before step 1, by the
cluster's floor (:mod:`repro.besteffs.floor`, :func:`refuse_unwalked`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Mapping

from repro.besteffs.node import BesteffsNode
from repro.besteffs.overlay import Overlay
from repro.besteffs.walks import DEFAULT_WALK_LENGTH, sample_nodes
from repro.core.obj import StoredObject
from repro.errors import PlacementError
from repro.obs import COUNT_BUCKETS, IMPORTANCE_BUCKETS, STATE as _OBS, observe_phase

__all__ = ["PlacementConfig", "PlacementDecision", "choose_unit", "refuse_unwalked"]


@dataclass(frozen=True)
class PlacementConfig:
    """Tunables of the distributed placement rule."""

    #: Units sampled per round (the paper's ``x``).
    x: int = 5
    #: Maximum successive sampling rounds (the paper's ``m``).
    m: int = 3
    #: Steps per random walk.
    walk_length: int = DEFAULT_WALK_LENGTH

    def __post_init__(self) -> None:
        if self.x < 1:
            raise PlacementError(f"x must be >= 1, got {self.x}")
        if self.m < 1:
            raise PlacementError(f"m must be >= 1, got {self.m}")
        if self.walk_length < 0:
            raise PlacementError(f"walk_length must be >= 0, got {self.walk_length}")


@dataclass(frozen=True)
class PlacementDecision:
    """Outcome of running the placement rule for one object."""

    placed: bool
    node_id: str | None
    rounds_used: int
    nodes_probed: int
    #: Probe score of the chosen unit (0.0 for a direct store).
    chosen_score: float
    reason: str  # "direct" | "lowest-preempted" | "all-full"


def choose_unit(
    nodes: Mapping[str, BesteffsNode],
    overlay: Overlay,
    obj: StoredObject,
    now: float,
    *,
    config: PlacementConfig,
    rng: random.Random,
    start_node: str | None = None,
) -> tuple[PlacementDecision, BesteffsNode | None]:
    """Run the placement rule; returns the decision and the chosen node.

    The chosen node (if any) has **not** been mutated; the caller commits
    via :meth:`BesteffsNode.accept`.  ``start_node`` anchors the random
    walks (defaults to a uniformly random member, modelling the client's
    own desktop as the walk origin).
    """
    if not _OBS.enabled:
        return _choose_unit(
            nodes, overlay, obj, now, config=config, rng=rng, start_node=start_node
        )
    with _OBS.tracer.span("besteffs.choose_unit", sim_time=now):
        decision, node = _choose_unit(
            nodes, overlay, obj, now, config=config, rng=rng, start_node=start_node
        )
    _observe(decision, nodes, obj, now)
    return decision, node


#: An offer refused before any walk: no round ran and no unit was probed.
UNWALKED_REFUSAL = PlacementDecision(
    placed=False,
    node_id=None,
    rounds_used=0,
    nodes_probed=0,
    chosen_score=float("inf"),
    reason="all-full",
)


def refuse_unwalked(
    nodes: Mapping[str, BesteffsNode], obj: StoredObject, now: float
) -> PlacementDecision:
    """The decision for an offer every unit is known to refuse
    (:mod:`repro.besteffs.floor`), observed like a walked refusal."""
    if _OBS.enabled:
        _observe(UNWALKED_REFUSAL, nodes, obj, now)
    return UNWALKED_REFUSAL


def _observe(
    decision: PlacementDecision,
    nodes: Mapping[str, BesteffsNode],
    obj: StoredObject,
    now: float,
) -> None:
    """Export one decision; audit a refusal."""
    _record_decision(decision)
    if not decision.placed:
        ledger = _OBS.audit
        if ledger is not None and ledger.wants(obj.object_id):
            # Cluster-level rejection: every probed unit was full for this
            # object, so no single node made the call — the unit is the
            # cluster and the occupancy is the cluster-wide pressure.
            capacity = sum(n.capacity_bytes for n in nodes.values())
            used = sum(n.used_bytes for n in nodes.values())
            ledger.record(
                "reject",
                t=now,
                obj=obj,
                unit="cluster",
                importance=obj.importance_at(now),
                occupancy=used / capacity if capacity else 0.0,
                reason=decision.reason,
            )


def _record_decision(decision: PlacementDecision) -> None:
    """Export one placement outcome to the metrics registry."""
    registry = _OBS.registry
    registry.counter(
        "placement_decisions_total", "Placement outcomes by reason.", ("reason",)
    ).inc(reason=decision.reason)
    registry.histogram(
        "placement_rounds_used",
        "Sampling rounds consumed per placement.",
        buckets=COUNT_BUCKETS,
    ).observe(decision.rounds_used)
    registry.histogram(
        "placement_nodes_probed",
        "Storage units probed per placement.",
        buckets=COUNT_BUCKETS,
    ).observe(decision.nodes_probed)
    if decision.placed and decision.reason == "lowest-preempted":
        registry.histogram(
            "placement_preempted_importance",
            "Highest preempted importance at the chosen unit.",
            buckets=IMPORTANCE_BUCKETS,
        ).observe(decision.chosen_score)


def _choose_unit(
    nodes: Mapping[str, BesteffsNode],
    overlay: Overlay,
    obj: StoredObject,
    now: float,
    *,
    config: PlacementConfig,
    rng: random.Random,
    start_node: str | None,
) -> tuple[PlacementDecision, BesteffsNode | None]:
    if not nodes:
        raise PlacementError("cannot place on an empty cluster")
    if start_node is None:
        origin = rng.choice(overlay.node_ids)
    elif start_node in nodes:
        origin = start_node
    else:
        raise PlacementError(f"start node {start_node!r} is not a cluster member")

    incoming = obj.importance_at(now)
    best_score = float("inf")
    best_node: BesteffsNode | None = None
    probed_total = 0
    profiled = _OBS.enabled

    for round_no in range(1, config.m + 1):
        round_t0 = perf_counter() if profiled else 0.0
        sampled = sample_nodes(
            overlay, origin, config.x, rng, walk_length=config.walk_length
        )
        for node_id in sampled:
            probed_total += 1
            node = nodes.get(node_id)
            if node is None:
                # Expelled since the overlay was built: a brick that cannot
                # store, probed and skipped like a full unit.
                continue
            probe = node.probe(obj, now, incoming)
            if not probe.admissible:
                continue  # full for this object (or oversized here)
            if probe.direct:
                if profiled:
                    observe_phase("placement.round", perf_counter() - round_t0)
                return (
                    PlacementDecision(
                        placed=True,
                        node_id=node_id,
                        rounds_used=round_no,
                        nodes_probed=probed_total,
                        chosen_score=0.0,
                        reason="direct",
                    ),
                    node,
                )
            if probe.highest_preempted < best_score:
                best_score = probe.highest_preempted
                best_node = node
        if profiled:
            observe_phase("placement.round", perf_counter() - round_t0)

    placed = best_node is not None
    return (
        PlacementDecision(
            placed=placed,
            node_id=best_node.node_id if placed else None,
            rounds_used=config.m,
            nodes_probed=probed_total,
            chosen_score=best_score,  # still inf when every unit was full
            reason="lowest-preempted" if placed else "all-full",
        ),
        best_node,
    )

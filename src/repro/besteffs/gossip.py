"""Decentralised estimation of the storage importance density (paper §4.4).

The density is the feedback signal content creators use to pick
annotations (Sections 4.4, 5.1.2), but Besteffs has "no centralized
components" — no node knows the cluster-wide density exactly.  Two
estimators are provided, both using only the primitives the paper already
relies on:

* :func:`sampled_density` — probe ``k`` random-walk-sampled nodes and
  return their capacity-weighted density.  This is what a capture client
  would run right before choosing an annotation (one round trip per
  sample).
* :class:`GossipAverager` — classic push-pull gossip averaging: every
  round each node averages its (density, capacity) pair with a random
  overlay neighbour; the per-node estimates converge exponentially to the
  capacity-weighted global mean without any node ever seeing the global
  state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.walks import DEFAULT_WALK_LENGTH, sample_nodes
from repro.core.density import importance_density
from repro.errors import OverlayError
from repro.obs import STATE as _OBS, observe_phase

__all__ = ["sampled_density", "GossipAverager"]


def sampled_density(
    cluster: BesteffsCluster,
    now: float,
    *,
    k: int = 8,
    rng: random.Random,
    start_node: str | None = None,
    walk_length: int = DEFAULT_WALK_LENGTH,
) -> float:
    """Estimate the cluster density from ``k`` random-walk samples.

    Returns the capacity-weighted mean density of the sampled nodes —
    an unbiased estimator of the cluster-wide density when walk endpoints
    are near-uniform (the regular overlay guarantees this).
    """
    if k < 1:
        raise OverlayError(f"sample size k must be >= 1, got {k}")
    origin = start_node if start_node is not None else rng.choice(cluster.overlay.node_ids)
    sampled = sample_nodes(cluster.overlay, origin, k, rng, walk_length=walk_length)
    weighted = 0.0
    capacity = 0
    for node_id in sampled:
        node = cluster.nodes[node_id]
        weighted += importance_density(node.store, now) * node.capacity_bytes
        capacity += node.capacity_bytes
    estimate = weighted / capacity if capacity else 0.0
    if _OBS.enabled:
        registry = _OBS.registry
        registry.counter(
            "gossip_density_samples_total",
            "Walk-sampled density estimates computed.",
        ).inc()
        registry.gauge(
            "gossip_sampled_density", "Most recent walk-sampled density estimate."
        ).set(estimate)
    return estimate


@dataclass
class _GossipState:
    density: float
    weight: float  # capacity share carried by this estimate


class GossipAverager:
    """Push-pull gossip averaging of (density × capacity) over the overlay.

    Each node holds an estimate initialised to its own local density; one
    :meth:`round` pairs every node with a random neighbour and both take
    the capacity-weighted average of their estimates.  The estimates
    converge to the true capacity-weighted cluster density; the residual
    spread is reported by :meth:`spread`.
    """

    def __init__(self, cluster: BesteffsCluster, now: float, *, seed: int = 0):
        self.cluster = cluster
        self._rng = random.Random(seed)
        self._truth = cluster.mean_density(now)
        self._states: dict[str, _GossipState] = {
            node_id: _GossipState(
                density=importance_density(node.store, now),
                weight=float(node.capacity_bytes),
            )
            for node_id, node in cluster.nodes.items()
        }
        self.rounds = 0

    @property
    def truth(self) -> float:
        """The exact capacity-weighted density at initialisation time."""
        return self._truth

    def estimate(self, node_id: str) -> float:
        """The current local estimate held by ``node_id``."""
        state = self._states.get(node_id)
        if state is None:
            raise OverlayError(f"unknown node {node_id!r}")
        return state.density

    def round(self) -> None:
        """One synchronous push-pull round across all nodes."""
        round_t0 = perf_counter() if _OBS.enabled else 0.0
        exchanges = 0
        order = sorted(self._states)
        self._rng.shuffle(order)
        for node_id in order:
            neighbors = self.cluster.overlay.neighbors(node_id)
            if not neighbors:
                continue
            peer = self._rng.choice(neighbors)
            exchanges += 1
            a, b = self._states[node_id], self._states[peer]
            total = a.weight + b.weight
            if total == 0.0:
                continue
            merged = (a.density * a.weight + b.density * b.weight) / total
            a.density = merged
            b.density = merged
            # Weights equalise too (mass-conserving pairwise averaging).
            half = total / 2.0
            a.weight = half
            b.weight = half
        self.rounds += 1
        if _OBS.enabled:
            registry = _OBS.registry
            registry.counter(
                "gossip_rounds_total", "Push-pull gossip rounds executed."
            ).inc()
            registry.counter(
                "gossip_exchanges_total",
                "Pairwise estimate exchanges (gossip fan-out).",
            ).inc(exchanges)
            observe_phase("gossip.round", perf_counter() - round_t0)

    def run(self, rounds: int) -> float:
        """Run ``rounds`` gossip rounds; returns the final spread."""
        for _ in range(rounds):
            self.round()
        spread = self.spread()
        if _OBS.enabled:
            registry = _OBS.registry
            registry.gauge(
                "gossip_spread", "Residual estimate spread after the last run."
            ).set(spread)
            registry.gauge(
                "gossip_convergence_rounds",
                "Gossip rounds executed by the last run.",
            ).set(self.rounds)
        return spread

    def spread(self) -> float:
        """Max absolute deviation of any node's estimate from the truth."""
        return max(
            abs(state.density - self._truth) for state in self._states.values()
        )

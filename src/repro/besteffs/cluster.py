"""The Besteffs cluster facade.

Ties nodes, overlay and placement into the object-level API the workloads
drive: :meth:`BesteffsCluster.offer` places (or rejects) an annotated
object, :meth:`locate` finds it later, and the aggregate metrics feed the
Section 5.3 experiment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.besteffs.node import BesteffsNode
from repro.besteffs.overlay import Overlay
from repro.besteffs.placement import PlacementConfig, PlacementDecision, choose_unit
from repro.core.density import importance_density
from repro.core.obj import ObjectId, StoredObject
from repro.core.policy import EvictionPolicy
from repro.core.store import AdmissionResult
from repro.errors import PlacementError, UnknownObjectError
from repro.obs import STATE as _OBS
from repro.sim.recorder import Recorder

__all__ = ["BesteffsCluster", "ClusterStats"]


@dataclass(frozen=True)
class ClusterStats:
    """Aggregate cluster counters at a moment in time."""

    nodes: int
    capacity_bytes: int
    used_bytes: int
    resident_objects: int
    placed: int
    rejected: int
    mean_density: float
    mean_rounds: float
    mean_probes: float


class BesteffsCluster:
    """A fully distributed Besteffs deployment (no central components).

    Parameters
    ----------
    node_capacities:
        Mapping from node id to raw capacity in bytes (one entry per
        desktop/brick).
    placement:
        Placement tunables (``x`` samples, ``m`` tries, walk length).
    overlay:
        Prebuilt overlay; by default a random-regular graph over the node
        ids is constructed with ``seed``.
    policy_factory:
        Builds the per-node eviction policy; defaults to the
        temporal-importance policy (the Besteffs admission rule).  Passing
        e.g. ``PalimpsestPolicy`` turns the whole cluster into the FIFO
        baseline for comparisons.
    """

    def __init__(
        self,
        node_capacities: dict[str, int],
        *,
        placement: PlacementConfig | None = None,
        overlay: Overlay | None = None,
        seed: int = 0,
        policy_factory: type[EvictionPolicy] | None = None,
        keep_history: bool = False,
        recorder: Recorder | None = None,
    ) -> None:
        if not node_capacities:
            raise PlacementError("cluster needs at least one node")
        self.placement = placement if placement is not None else PlacementConfig()
        self._rng = random.Random(seed)
        #: Where each stored object lives (object id -> node id).
        self._locations: dict[ObjectId, str] = {}
        self.recorder = recorder
        self.nodes: dict[str, BesteffsNode] = {}
        for node_id, capacity in node_capacities.items():
            policy = policy_factory() if policy_factory is not None else None
            self.adopt_node(
                BesteffsNode(node_id, capacity, policy=policy, keep_history=keep_history)
            )
        self.overlay = (
            overlay
            if overlay is not None
            else Overlay.random_regular(tuple(node_capacities), seed=seed)
        )
        for node_id in self.nodes:
            if node_id not in self.overlay:
                raise PlacementError(f"node {node_id!r} missing from overlay")

        self.placed_count = 0
        self.rejected_count = 0
        self._rounds_total = 0
        self._probes_total = 0

    # -- membership ----------------------------------------------------------

    def adopt_node(self, node: BesteffsNode) -> BesteffsNode:
        """Wire a node into the cluster's recording and location index.

        Used at construction and by :class:`~repro.besteffs.membership.
        ChurnManager` on joins.  The caller is responsible for keeping the
        overlay consistent afterwards.
        """
        if node.node_id in self.nodes:
            raise PlacementError(f"node {node.node_id!r} is already a member")
        if self.recorder is not None:
            self.recorder.attach(node.store)
        # Preempted objects must vanish from the location index; subscribe
        # after the recorder so both observers fire.
        previous = node.store.on_eviction

        def on_eviction(record, _prev=previous):
            self._locations.pop(record.obj.object_id, None)
            if _prev is not None:
                _prev(record)

        node.store.on_eviction = on_eviction
        self.nodes[node.node_id] = node
        return node

    def expel_node(self, node_id: str) -> BesteffsNode:
        """Detach a node from the cluster (its store is left untouched).

        The caller is responsible for draining or declaring its residents
        lost, and for rebuilding the overlay.
        """
        node = self.nodes.pop(node_id, None)
        if node is None:
            raise PlacementError(f"node {node_id!r} is not a member")
        return node

    # -- object API ---------------------------------------------------------

    def offer(
        self, obj: StoredObject, now: float, *, start_node: str | None = None
    ) -> tuple[PlacementDecision, AdmissionResult | None]:
        """Place an annotated object somewhere on the cluster.

        Returns the placement decision and, when placed, the node-level
        admission result (with its eviction records).
        """
        decision, node = choose_unit(
            self.nodes,
            self.overlay,
            obj,
            now,
            config=self.placement,
            rng=self._rng,
            start_node=start_node,
        )
        self._rounds_total += decision.rounds_used
        self._probes_total += decision.nodes_probed
        if not decision.placed or node is None:
            self.rejected_count += 1
            if self.recorder is not None:
                self.recorder.record_arrival(
                    t=now, size=obj.size, admitted=False,
                    creator=obj.creator, object_id=obj.object_id, unit="",
                )
            self._obs_scrape(now)
            return decision, None
        # Only the winner is planned, and the plan must be the one its probe
        # scored: checked on every placed offer, before anything is evicted.
        plan = node.store.peek_admission(obj, now)
        if not plan.admit or plan.highest_preempted != decision.chosen_score:
            raise PlacementError(
                f"probe/commit disagreement on node {node.node_id!r} for "
                f"{obj.object_id!r}: probed {decision.chosen_score!r}, planned "
                f"{plan.highest_preempted!r} ({plan.reason})"
            )
        result = node.store.offer(obj, now, plan=plan)
        self._locations[obj.object_id] = node.node_id
        self.placed_count += 1
        if self.recorder is not None:
            self.recorder.record_arrival(
                t=now, size=obj.size, admitted=True,
                creator=obj.creator, object_id=obj.object_id, unit=node.node_id,
            )
        self._obs_scrape(now)
        return decision, result

    def _obs_scrape(self, now: float) -> None:
        """Feed the time-series collector on engine-less (direct) drives.

        Cluster experiments offer arrivals straight from the workload
        iterator without a :class:`~repro.sim.engine.SimulationEngine`, so
        the collector's sim-time cadence is checked here instead of in the
        dispatch loop.  Per-node density/occupancy gauges are refreshed
        only when a scrape is actually due; the density is the same exact
        mass the recorder's samples read, O(waning residents) per node.
        """
        collector = _OBS.timeseries
        if not _OBS.enabled or collector is None or now < collector.next_due:
            return
        registry = _OBS.registry
        density_gauge = registry.gauge(
            "store_importance_density",
            "Instantaneous storage importance density.",
            ("unit",),
        )
        occupancy_gauge = registry.gauge(
            "store_occupancy_ratio",
            "Fraction of raw capacity occupied.",
            ("unit",),
        )
        for node_id, node in self.nodes.items():
            density_gauge.set(importance_density(node.store, now), unit=node_id)
            occupancy_gauge.set(
                node.used_bytes / node.capacity_bytes, unit=node_id
            )
        collector.scrape(now)
        alerts = _OBS.alerts
        if alerts is not None:
            alerts.evaluate(registry, now=now)

    def locate(self, object_id: ObjectId) -> BesteffsNode:
        """Find the node currently holding an object."""
        node_id = self._locations.get(object_id)
        if node_id is None:
            raise UnknownObjectError(f"{object_id!r} is not stored in the cluster")
        return self.nodes[node_id]

    def read(self, object_id: ObjectId, now: float) -> StoredObject:
        """Read an object's metadata, recording the access on its node.

        Besteffs objects are read-only; a read touches the holding node's
        recency state (feeding LRU-style baselines) and returns the
        immutable object.  Raises :class:`UnknownObjectError` when the
        object was reclaimed — the caller's cue that the annotation's
        lifetime has been outlived.
        """
        node = self.locate(object_id)
        return node.store.touch(object_id, now)

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self._locations

    # -- aggregates ----------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return sum(n.capacity_bytes for n in self.nodes.values())

    @property
    def used_bytes(self) -> int:
        return sum(n.used_bytes for n in self.nodes.values())

    def resident_count(self) -> int:
        return sum(n.store.resident_count for n in self.nodes.values())

    def mean_density(self, now: float) -> float:
        """Capacity-weighted cluster-wide storage importance density."""
        weighted = sum(
            importance_density(n.store, now) * n.capacity_bytes
            for n in self.nodes.values()
        )
        return weighted / self.capacity_bytes

    def stored_bytes_by_creator(self) -> dict[str, int]:
        """Bytes currently resident per creator class (student vs university).

        Integer sums, so per-node tallies (slab-served on the default
        layout) fold associatively into exactly the flat-scan totals.
        """
        out: dict[str, int] = {}
        for node in self.nodes.values():
            for creator, total in node.store.bytes_by_creator().items():
                out[creator] = out.get(creator, 0) + total
        return out

    def stats(self, now: float) -> ClusterStats:
        attempts = self.placed_count + self.rejected_count
        return ClusterStats(
            nodes=len(self.nodes),
            capacity_bytes=self.capacity_bytes,
            used_bytes=self.used_bytes,
            resident_objects=self.resident_count(),
            placed=self.placed_count,
            rejected=self.rejected_count,
            mean_density=self.mean_density(now),
            mean_rounds=self._rounds_total / attempts if attempts else 0.0,
            mean_probes=self._probes_total / attempts if attempts else 0.0,
        )

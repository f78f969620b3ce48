"""Dynamic membership and churn for Besteffs (paper Section 4.1).

Besteffs "uses unused desktop storage as well as ... dedicated storage
bricks" and "does not provide any more reliability guarantees than ... a
single copy of an object in the underlying storage": desktops join and
leave, and because objects are **not replicated**, every object resident
on a departing desktop is lost.  This module adds managed membership on
top of :class:`~repro.besteffs.cluster.BesteffsCluster`:

* :meth:`ChurnManager.join` — admit a new node and splice it into the
  overlay;
* :meth:`ChurnManager.leave` — remove a node; its residents are recorded
  as ``"node-departure"`` evictions (data loss, per the paper's
  single-copy reliability model);
* :class:`ChurnModel` — a seeded generator of join/leave events for churn
  experiments (e.g. a university replacing a fraction of desktops per
  semester).

Overlay maintenance is **incremental splicing** — a joiner attaches to
``join_degree`` random members, a leaver's neighbours are re-matched
pairwise (with bridge repair if fragmentation occurs) — the realistic p2p
protocol.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.node import BesteffsNode
from repro.core.store import EvictionRecord
from repro.errors import OverlayError, PlacementError

__all__ = ["ChurnManager", "ChurnEvent", "ChurnModel"]


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change."""

    t: float
    kind: str  # "join" | "leave"
    node_id: str
    capacity_bytes: int = 0
    #: Objects lost when a node departed (empty for joins).
    lost: tuple[EvictionRecord, ...] = ()


class ChurnManager:
    """Applies joins and leaves to a live cluster."""

    def __init__(
        self,
        cluster: BesteffsCluster,
        *,
        overlay_seed: int = 0,
        join_degree: int = 8,
    ):
        if join_degree < 1:
            raise OverlayError("join_degree must be at least 1: a joiner needs an edge")
        self.cluster = cluster
        self._overlay_rng = random.Random(overlay_seed)
        self.join_degree = join_degree
        self._rebuilds = 0
        #: Chronological log of applied membership changes.
        self.events: list[ChurnEvent] = []

    def join(self, node_id: str, capacity_bytes: int, now: float) -> ChurnEvent:
        """Admit a new (empty) node and splice it into the overlay; both are
        built before the cluster adopts either, so a failed join changes nothing."""
        if node_id in self.cluster.nodes:
            raise OverlayError(f"node {node_id!r} is already a member")
        node = BesteffsNode(node_id, capacity_bytes)
        overlay = self.cluster.overlay.with_node(
            node_id, degree=self.join_degree, rng=self._overlay_rng
        )
        self.cluster.adopt_node(node)
        self.cluster.overlay = overlay
        self._rebuilds += 1
        event = ChurnEvent(
            t=now, kind="join", node_id=node_id, capacity_bytes=capacity_bytes
        )
        self.events.append(event)
        return event

    def leave(self, node_id: str, now: float) -> ChurnEvent:
        """Remove a node; every resident object is lost (single copy)."""
        node = self.cluster.nodes.get(node_id)
        if node is None:
            raise OverlayError(f"node {node_id!r} is not a member")
        if len(self.cluster.nodes) == 1:
            raise PlacementError("cannot remove the last node of a cluster")
        lost = tuple(
            node.store.remove(obj.object_id, now, reason="node-departure")
            for obj in list(node.store.iter_residents())
        )
        self.cluster.expel_node(node_id)
        self.cluster.overlay = self.cluster.overlay.without_node(node_id, rng=self._overlay_rng)
        self._rebuilds += 1
        event = ChurnEvent(
            t=now,
            kind="leave",
            node_id=node_id,
            capacity_bytes=node.capacity_bytes,
            lost=lost,
        )
        self.events.append(event)
        return event

    def lost_objects(self) -> list[EvictionRecord]:
        """All objects lost to departures so far, in event order."""
        return [record for event in self.events for record in event.lost]

    @property
    def overlay_rebuilds(self) -> int:
        """How many overlay splices (one per join or leave) ran."""
        return self._rebuilds


@dataclass
class ChurnModel:
    """Seeded join/leave schedule generator.

    Models a fleet whose desktops are replaced over time: every
    ``interval_minutes`` a fraction ``leave_fraction`` of the current
    membership departs and ``join_per_interval`` fresh nodes join with
    ``join_capacity_bytes`` disks (newer desktops may host bigger disks,
    per the paper's expectation).
    """

    interval_minutes: float
    leave_fraction: float
    join_per_interval: int
    join_capacity_bytes: int
    seed: int = 0
    _counter: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.interval_minutes <= 0:
            raise PlacementError("churn interval must be positive")
        if not 0.0 <= self.leave_fraction < 1.0:
            raise PlacementError("leave_fraction must be in [0, 1)")
        if self.join_per_interval < 0 or self.join_capacity_bytes <= 0:
            raise PlacementError("join parameters must be positive")

    def apply(self, manager: ChurnManager, now: float) -> list[ChurnEvent]:
        """Apply one interval's worth of churn to the cluster."""
        rng = random.Random((self.seed, round(now)).__hash__())
        events: list[ChurnEvent] = []
        members = sorted(manager.cluster.nodes)
        n_leave = int(len(members) * self.leave_fraction)
        # Never shrink below one survivor.
        n_leave = min(n_leave, len(members) - 1)
        for node_id in rng.sample(members, n_leave):
            events.append(manager.leave(node_id, now))
        for _ in range(self.join_per_interval):
            self._counter += 1
            events.append(
                manager.join(
                    f"joined-{self._counter:05d}", self.join_capacity_bytes, now
                )
            )
        return events

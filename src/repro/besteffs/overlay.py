"""The Besteffs p2p overlay.

A connected, undirected graph over node ids.  The paper only requires that
random walks over the overlay produce a good (near-uniform) sample of
storage units, which a random-regular graph provides; a Watts–Strogatz
small-world construction is also offered for sensitivity experiments.
"""

from __future__ import annotations

import random
from typing import Sequence

import networkx as nx

from repro.errors import OverlayError

__all__ = ["Overlay"]


class Overlay:
    """Undirected overlay graph over node ids."""

    def __init__(self, graph: nx.Graph):
        if graph.number_of_nodes() == 0:
            raise OverlayError("overlay must contain at least one node")
        if graph.number_of_nodes() > 1 and not nx.is_connected(graph):
            raise OverlayError("overlay must be connected for random walks to mix")
        self._graph = graph
        self._nodes: tuple[str, ...] = tuple(graph.nodes())
        # Lazy draw table for the walk hot path; an Overlay is immutable
        # (joins/departures build new instances) so the cache never
        # invalidates.
        self._compact: tuple[dict[str, int], tuple] | None = None
        self._neighbor_cache: dict[str, tuple[str, ...]] = {}

    @classmethod
    def random_regular(
        cls, node_ids: Sequence[str], *, degree: int = 8, seed: int = 0
    ) -> "Overlay":
        """Build a random ``degree``-regular overlay (the default topology).

        Falls back to a complete graph for memberships too small to host
        the requested degree.
        """
        n = len(node_ids)
        if n == 0:
            raise OverlayError("overlay must contain at least one node")
        if n == 1:
            graph = nx.Graph()
            graph.add_node(node_ids[0])
            return cls(graph)
        d = min(degree, n - 1)
        if (d * n) % 2 == 1:
            d -= 1  # a d-regular graph needs d*n even
        if d < 1:
            base = nx.complete_graph(n)
        else:
            base = nx.random_regular_graph(d, n, seed=seed)
            if not nx.is_connected(base):  # rare for d >= 3; retry determinately
                for attempt in range(1, 16):
                    base = nx.random_regular_graph(d, n, seed=seed + attempt)
                    if nx.is_connected(base):
                        break
                else:
                    base = nx.complete_graph(n)
        return cls(nx.relabel_nodes(base, dict(enumerate(node_ids))))

    @classmethod
    def small_world(
        cls,
        node_ids: Sequence[str],
        *,
        k: int = 8,
        rewire_p: float = 0.2,
        seed: int = 0,
    ) -> "Overlay":
        """Watts–Strogatz small-world overlay (sensitivity topology)."""
        n = len(node_ids)
        if n == 0:
            raise OverlayError("overlay must contain at least one node")
        if n <= k:
            return cls.random_regular(node_ids, degree=k, seed=seed)
        base = nx.connected_watts_strogatz_graph(n, k, rewire_p, seed=seed)
        return cls(nx.relabel_nodes(base, dict(enumerate(node_ids))))

    def with_node(
        self, node_id: str, *, degree: int = 8, rng: "random.Random"
    ) -> "Overlay":
        """Return a new overlay with ``node_id`` spliced in incrementally.

        The joiner attaches to ``degree`` distinct random members (all of
        them, on small overlays) — the realistic p2p join, as opposed to
        rebuilding the whole graph.  Connectivity is preserved because the
        base graph was connected and the joiner gains at least one edge.
        """
        if node_id in self._graph:
            raise OverlayError(f"{node_id!r} is already an overlay member")
        graph = self._graph.copy()
        graph.add_node(node_id)
        members = list(self._nodes)
        targets = rng.sample(members, min(degree, len(members))) if members else []
        for target in targets:
            graph.add_edge(node_id, target)
        return Overlay(graph)

    def without_node(self, node_id: str, *, rng: "random.Random") -> "Overlay":
        """Return a new overlay with ``node_id`` removed incrementally.

        The departed node's neighbours are re-linked pairwise (a random
        matching over them) so the hole does not disconnect the graph; if
        removal still fragments it, bridge edges are added between the
        components (the "repair gossip" a real deployment would run).
        """
        if node_id not in self._graph:
            raise OverlayError(f"{node_id!r} is not an overlay member")
        if self._graph.number_of_nodes() == 1:
            raise OverlayError("cannot remove the last overlay member")
        graph = self._graph.copy()
        orphans = list(graph.neighbors(node_id))
        graph.remove_node(node_id)
        rng.shuffle(orphans)
        for left, right in zip(orphans[::2], orphans[1::2]):
            if left != right:
                graph.add_edge(left, right)
        if graph.number_of_nodes() > 1 and not nx.is_connected(graph):
            components = [sorted(c) for c in nx.connected_components(graph)]
            anchor = components[0][0]
            for component in components[1:]:
                graph.add_edge(anchor, rng.choice(component))
        return Overlay(graph)

    @property
    def node_ids(self) -> tuple[str, ...]:
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._graph

    def neighbors(self, node_id: str) -> tuple[str, ...]:
        """Overlay neighbours of a node (raises on unknown ids)."""
        cached = self._neighbor_cache.get(node_id)
        if cached is not None:
            return cached
        if node_id not in self._graph:
            raise OverlayError(f"unknown overlay node {node_id!r}")
        result = tuple(self._graph.neighbors(node_id))
        self._neighbor_cache[node_id] = result
        return result

    def walk_draws(
        self,
    ) -> tuple[dict[str, int], tuple[tuple[int, tuple[int, ...]], ...]]:
        """Integer-indexed draw table for the walk hot path.

        Returns ``(index_of, draws)``; index ``i`` is ``node_ids[i]`` and
        ``draws[i] = (k, row)`` answers ``rng.choice(neighbors(node))`` as
        ``_randbelow_with_getrandbits`` does, one lookup per draw: of
        ``k = len(neighbors).bit_length()`` drawn bits, ``row[bits]`` is the
        chosen neighbour's *index* in :meth:`neighbors` order, or -1 where
        ``choice`` rejects the draw (``bits >= len(neighbors)``).  ``k`` is
        0 for the isolated node of a single-node overlay.
        """
        compact = self._compact
        if compact is None:
            index_of = {node: i for i, node in enumerate(self._nodes)}
            graph = self._graph
            draws = []
            for node in self._nodes:
                row = [index_of[m] for m in graph.neighbors(node)]
                k = len(row).bit_length()
                draws.append((k, tuple(row + [-1] * ((1 << k) - len(row))) if k else ()))
            compact = self._compact = (index_of, tuple(draws))
        return compact

    def degree(self, node_id: str) -> int:
        if node_id not in self._graph:
            raise OverlayError(f"unknown overlay node {node_id!r}")
        return self._graph.degree(node_id)

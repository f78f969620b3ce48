"""The Besteffs p2p overlay.

A connected, undirected graph over node ids, held as one frozen neighbour
table.  The paper only requires that random walks over the overlay produce
a good (near-uniform) sample of storage units, which a random-regular
graph provides; a Watts–Strogatz small-world construction is also offered
for sensitivity experiments.

The builders are stdlib ports of the graph library the overlay was first
built with (random-regular graphs by Steger & Wormald's pairing, 1999) and
insert nodes and edges in its order, so every neighbour order, walk and
RNG draw is unchanged (``tests/besteffs/test_overlay_parity.py``).  A graph
under construction maps each node to an insertion-ordered set of
neighbours (``{neighbour: None}``): re-adding an edge keeps its position.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import OverlayError

__all__ = ["Overlay"]


def _add_edge(adj: dict, u, v) -> None:
    adj[u][v] = None
    adj[v][u] = None


def _reinsert(adj: Mapping, names: Sequence[str] | None = None) -> dict:
    """Copy ``adj``, or relabel node ``i`` to ``names[i]``.

    Both add the nodes in order, then every edge in adjacency traversal
    order, so a node's earlier-ordered neighbours move to the front.
    """
    name = names.__getitem__ if names is not None else (lambda u: u)
    out: dict = {name(u): {} for u in adj}
    for u, nbrs in adj.items():
        a = name(u)
        row = out[a]
        for v in nbrs:
            b = name(v)
            row[b] = None
            out[b][a] = None
    return out


def _components(adj: Mapping) -> Iterator[set]:
    """Connected components, in the order of each one's first node."""
    seen: set = set()
    for source in adj:
        if source in seen:
            continue
        component, frontier = {source}, [source]
        for v in frontier:
            for w in adj[v]:
                if w not in component:
                    component.add(w)
                    frontier.append(w)
        seen |= component
        yield component


def _connected(adj: Mapping) -> bool:
    return len(next(_components(adj))) == len(adj)


def _complete(n: int) -> dict:
    return {u: {v: None for v in range(n) if v != u} for u in range(n)}


def _random_regular(d: int, n: int, rng: random.Random) -> dict:
    """A random ``d``-regular graph on ``range(n)``: ``1 <= d < n``, ``d*n`` even."""

    def suitable(edges: set, potential: dict) -> bool:
        if not potential:
            return True
        for s1 in potential:
            for s2 in potential:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1  # rebinds s1 for the rest of the row, as the reference does
                if (s1, s2) not in edges:
                    return True
        return False

    def attempt() -> set | None:
        edges: set = set()
        stubs = list(range(n)) * d
        while stubs:
            potential: defaultdict = defaultdict(int)
            rng.shuffle(stubs)
            pairs = iter(stubs)
            for s1, s2 in zip(pairs, pairs):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential[s1] += 1
                    potential[s2] += 1
            if not suitable(edges, potential):
                return None
            stubs = [node for node, count in potential.items() for _ in range(count)]
        return edges

    while (edges := attempt()) is None:
        pass
    adj: dict = {u: {} for u in range(n)}
    for u, v in edges:  # in set order, as the reference adds them
        _add_edge(adj, u, v)
    return adj


def _watts_strogatz(n: int, k: int, p: float, rng: random.Random) -> dict:
    """A Watts–Strogatz graph on ``range(n)``: a ``k``-ring, each edge rewired
    with probability ``p`` (``k < n``)."""
    adj: dict = {u: {} for u in range(n)}
    nodes = list(range(n))
    for j in range(1, k // 2 + 1):
        for u, v in zip(nodes, nodes[j:] + nodes[:j]):
            _add_edge(adj, u, v)
    for j in range(1, k // 2 + 1):
        for u, v in zip(nodes, nodes[j:] + nodes[:j]):
            if rng.random() < p:
                w = rng.choice(nodes)
                while w == u or w in adj[u]:
                    w = rng.choice(nodes)
                    if len(adj[u]) >= n - 1:
                        break  # u is saturated: skip this rewiring
                else:
                    del adj[u][v], adj[v][u]
                    _add_edge(adj, u, w)
    return adj


class Overlay:
    """Undirected overlay graph over node ids: a frozen neighbour table."""

    def __init__(self, adjacency: Mapping[str, Iterable[str]]):
        adj = {node: tuple(nbrs) for node, nbrs in adjacency.items()}
        if not adj:
            raise OverlayError("overlay must contain at least one node")
        unmatched: dict = {}  # directed edges still waiting for their reverse
        for node, nbrs in adj.items():
            if node in nbrs:
                raise OverlayError(f"overlay node {node!r} lists itself as a neighbour")
            if len(set(nbrs)) != len(nbrs):
                raise OverlayError(f"overlay node {node!r} lists a neighbour twice")
            for other in nbrs:
                if other not in adj:
                    raise OverlayError(f"{node!r}'s neighbour {other!r} is not a member")
                if unmatched.pop((other, node), True):
                    unmatched[(node, other)] = None
        if unmatched:
            raise OverlayError(f"overlay edge without its reverse: {next(iter(unmatched))}")
        if not _connected(adj):
            raise OverlayError("overlay must be connected for random walks to mix")
        self._adj: dict[str, tuple[str, ...]] = adj
        self._nodes: tuple[str, ...] = tuple(adj)
        # Lazy draw table for the walk hot path; an Overlay is immutable
        # (joins/departures build new instances) so it never invalidates.
        self._compact: tuple[dict[str, int], tuple[tuple[int, list], ...]] | None = None

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
        d = min(degree, n - 1)
        if (d * n) % 2 == 1:
            d -= 1  # a d-regular graph needs d*n even
        # A disconnected draw is rare for d >= 3; retry determinately.
        for attempt in range(16 if d >= 1 else 0):
            base = _random_regular(d, n, random.Random(seed + attempt))
            if _connected(base):
                return cls(_reinsert(base, node_ids))
        return cls(_reinsert(_complete(n), node_ids))

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
        if n <= k:
            return cls.random_regular(node_ids, degree=k, seed=seed)
        rng = random.Random(seed)  # one stream across the tries
        for _ in range(100):
            base = _watts_strogatz(n, k, rewire_p, rng)
            if _connected(base):
                return cls(_reinsert(base, node_ids))
        raise OverlayError("no connected small-world overlay in 100 tries")

    def with_node(
        self, node_id: str, *, degree: int = 8, rng: "random.Random"
    ) -> "Overlay":
        """Return a new overlay with ``node_id`` spliced in incrementally.

        The joiner attaches to ``degree`` distinct random members (all of
        them, on small overlays) — the realistic p2p join, as opposed to
        rebuilding the whole graph.  Connectivity is preserved because the
        base graph was connected and the joiner gains at least one edge.
        """
        if node_id in self._adj:
            raise OverlayError(f"{node_id!r} is already an overlay member")
        adj = _reinsert(self._adj)
        adj[node_id] = {}
        for target in rng.sample(self._nodes, min(degree, len(self._nodes))):
            _add_edge(adj, node_id, target)
        return Overlay(adj)

    def without_node(self, node_id: str, *, rng: "random.Random") -> "Overlay":
        """Return a new overlay with ``node_id`` removed incrementally.

        The departed node's neighbours are re-linked pairwise (a random
        matching over them) so the hole does not disconnect the graph; if
        removal still fragments it, bridge edges are added between the
        components (the "repair gossip" a real deployment would run).
        """
        if node_id not in self._adj:
            raise OverlayError(f"{node_id!r} is not an overlay member")
        if len(self._adj) == 1:
            raise OverlayError("cannot remove the last overlay member")
        adj = _reinsert(self._adj)
        orphans = list(adj.pop(node_id))
        for orphan in orphans:
            del adj[orphan][node_id]
        rng.shuffle(orphans)
        for left, right in zip(orphans[::2], orphans[1::2]):
            _add_edge(adj, left, right)
        first, *rest = _components(adj)
        for component in rest:
            _add_edge(adj, min(first), rng.choice(sorted(component)))
        return Overlay(adj)

    @property
    def node_ids(self) -> tuple[str, ...]:
        return self._nodes

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._adj

    def neighbors(self, node_id: str) -> tuple[str, ...]:
        """Overlay neighbours of a node (raises on unknown ids)."""
        try:
            return self._adj[node_id]
        except KeyError:
            raise OverlayError(f"unknown overlay node {node_id!r}") from None

    def walk_draws(self) -> tuple[dict[str, int], tuple[tuple[int, list], ...]]:
        """Linked draw rows for the walk hot path.

        Returns ``(index_of, rows)``; index ``i`` is ``node_ids[i]`` and
        ``rows[i] = (k, slots)`` answers ``rng.choice(neighbors(node))`` as
        ``_randbelow_with_getrandbits`` does, one lookup per draw: of
        ``k = len(neighbors).bit_length()`` drawn bits, ``slots[bits]`` is the
        chosen neighbour's own row, or None where ``choice`` rejects the
        draw (``bits >= len(neighbors)``); ``slots[-1]`` is ``i``.  The
        isolated node of a single-node overlay has ``k = 0`` and itself as
        its one draw (``getrandbits(0)`` draws nothing), so a walk from it
        stays put.
        """
        compact = self._compact
        if compact is None:
            index_of = {node: i for i, node in enumerate(self._nodes)}
            rows = tuple((len(nbrs).bit_length(), []) for nbrs in self._adj.values())
            for i, nbrs in enumerate(self._adj.values()):
                k, slots = rows[i]
                slots += [rows[index_of[m]] for m in nbrs] if nbrs else [rows[i]]
                slots += [None] * ((1 << k) - len(slots)) + [i]
            compact = self._compact = (index_of, rows)
        return compact

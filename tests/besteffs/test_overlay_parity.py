"""The stdlib overlay builders reproduce networkx's graphs exactly.

networkx is the oracle here and nowhere else: each reference below is the
networkx code the overlay ran before it held a plain neighbour table.  An
overlay matches its reference when the node order, every ``neighbors()``
tuple (order included) and the walk draw table are the same, and a churn
step also leaves its RNG in the same state — so walk endpoints and every
seeded artifact stay byte-identical.
"""

import random

import pytest

from repro.besteffs.overlay import Overlay

nx = pytest.importorskip("networkx")


def ids(n):
    return [f"n{i:04d}" for i in range(n)]


def nx_random_regular(node_ids, degree, seed):
    n = len(node_ids)
    if n == 1:
        graph = nx.Graph()
        graph.add_node(node_ids[0])
        return graph
    d = min(degree, n - 1)
    if (d * n) % 2 == 1:
        d -= 1
    if d < 1:
        base = nx.complete_graph(n)
    else:
        base = nx.random_regular_graph(d, n, seed=seed)
        if not nx.is_connected(base):
            for attempt in range(1, 16):
                base = nx.random_regular_graph(d, n, seed=seed + attempt)
                if nx.is_connected(base):
                    break
            else:
                base = nx.complete_graph(n)
    return nx.relabel_nodes(base, dict(enumerate(node_ids)))


def nx_small_world(node_ids, k, rewire_p, seed):
    n = len(node_ids)
    if n <= k:
        return nx_random_regular(node_ids, k, seed)
    base = nx.connected_watts_strogatz_graph(n, k, rewire_p, seed=seed)
    return nx.relabel_nodes(base, dict(enumerate(node_ids)))


def nx_with_node(graph, node_id, degree, rng):
    graph = graph.copy()
    members = list(graph.nodes())
    graph.add_node(node_id)
    for target in rng.sample(members, min(degree, len(members))):
        graph.add_edge(node_id, target)
    return graph


def nx_without_node(graph, node_id, rng):
    graph = graph.copy()
    orphans = list(graph.neighbors(node_id))
    graph.remove_node(node_id)
    rng.shuffle(orphans)
    for left, right in zip(orphans[::2], orphans[1::2]):
        graph.add_edge(left, right)
    bridged = graph.number_of_nodes() > 1 and not nx.is_connected(graph)
    if bridged:
        components = [sorted(c) for c in nx.connected_components(graph)]
        for component in components[1:]:
            graph.add_edge(components[0][0], rng.choice(component))
    return graph, bridged


def assert_same(overlay, graph):
    assert overlay.node_ids == tuple(graph.nodes())
    assert [overlay.neighbors(n) for n in overlay.node_ids] == [
        tuple(graph.neighbors(n)) for n in graph.nodes()
    ]
    index_of = {node: i for i, node in enumerate(graph.nodes())}
    draws = []
    for node in graph.nodes():
        row = [index_of[m] for m in graph.neighbors(node)] or [index_of[node]]
        k = len(list(graph.neighbors(node))).bit_length()
        draws.append((k, index_of[node], row + [-1] * ((1 << k) - len(row))))
    # The rows are linked (each draw is the neighbour's own row), so they
    # are compared by the index each row carries, not by ``==``.
    got_index_of, rows = overlay.walk_draws()
    assert got_index_of == index_of
    assert [
        (k, slots[-1], [-1 if r is None else r[1][-1] for r in slots[:-1]]) for k, slots in rows
    ] == draws
    assert all(r is None or r is rows[r[1][-1]] for _k, slots in rows for r in slots[:-1])


GRID = [
    (n, degree, seed)
    for n in (*range(1, 40), 50, 100, 101, 400)
    for degree in (2, 3, 4, 8)
    for seed in range(3)
] + [(1000, 8, 0), (1000, 3, 1), (2000, 8, 42)]


def test_random_regular_grid():
    for n, degree, seed in GRID:
        node_ids = ids(n)
        assert_same(
            Overlay.random_regular(node_ids, degree=degree, seed=seed),
            nx_random_regular(node_ids, degree, seed),
        )


def test_complete_and_degenerate_degrees():
    for n in (2, 3, 7, 12, 40):
        for degree in (0, 1, n - 1, n + 5):
            node_ids = ids(n)
            assert_same(
                Overlay.random_regular(node_ids, degree=degree, seed=5),
                nx_random_regular(node_ids, degree, 5),
            )


def test_small_world_grid():
    for n in (3, 8, 9, 10, 17, 50, 101, 400):
        for k, p in ((4, 0.1), (6, 0.3), (8, 0.2), (8, 0.9)):
            for seed in range(3):
                node_ids = ids(n)
                assert_same(
                    Overlay.small_world(node_ids, k=k, rewire_p=p, seed=seed),
                    nx_small_world(node_ids, k, p, seed),
                )


@pytest.mark.parametrize("n,degree,seed", [(6, 2, 0), (30, 3, 1), (60, 8, 2), (200, 8, 7)])
def test_join_leave_chains(n, degree, seed):
    node_ids = ids(n)
    overlay = Overlay.random_regular(node_ids, degree=degree, seed=seed)
    graph = nx_random_regular(node_ids, degree, seed)
    ours, theirs, picker = random.Random(seed), random.Random(seed), random.Random(-seed)
    for step in range(12):
        if step % 3 == 2:
            joiner = f"j{step:02d}"
            overlay = overlay.with_node(joiner, degree=1 + step % 8, rng=ours)
            graph = nx_with_node(graph, joiner, 1 + step % 8, theirs)
        else:
            victim = picker.choice(overlay.node_ids)
            overlay = overlay.without_node(victim, rng=ours)
            graph, _ = nx_without_node(graph, victim, theirs)
        assert_same(overlay, graph)
        assert ours.getstate() == theirs.getstate()


def test_without_node_bridge_repair():
    # A hub with five leaves: the leaves re-match into two pairs and one
    # single, so the three pieces need the bridge-repair branch.
    hub, *leaves = ids(6)
    star = {hub: leaves, **{leaf: [hub] for leaf in leaves}}
    graph = nx.Graph()
    graph.add_edges_from((hub, leaf) for leaf in leaves)
    for seed in range(4):
        ours, theirs = random.Random(seed), random.Random(seed)
        overlay = Overlay(star).without_node(hub, rng=ours)
        repaired, bridged = nx_without_node(graph, hub, theirs)
        assert bridged
        assert_same(overlay, repaired)
        assert ours.getstate() == theirs.getstate()

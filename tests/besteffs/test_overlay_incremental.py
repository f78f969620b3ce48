"""Tests for incremental overlay splicing (join/leave without rebuilds)."""

import random

import pytest

from repro.besteffs.overlay import Overlay
from repro.errors import OverlayError

IDS = [f"n{i:03d}" for i in range(30)]


def connected(overlay: Overlay) -> bool:
    """Breadth-first search over ``neighbors()`` reaches every member."""
    start = overlay.node_ids[0]
    seen, frontier = {start}, [start]
    for node in frontier:
        for neighbor in overlay.neighbors(node):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return len(seen) == len(overlay.node_ids)


class TestWithNode:
    def test_joiner_gets_degree_edges(self):
        overlay = Overlay.random_regular(IDS, degree=6, seed=1)
        spliced = overlay.with_node("joiner", degree=6, rng=random.Random(0))
        assert "joiner" in spliced
        assert len(spliced.neighbors("joiner")) == 6
        assert connected(spliced)

    def test_small_overlay_attaches_to_everyone(self):
        overlay = Overlay.random_regular(["a", "b"], seed=0)
        spliced = overlay.with_node("c", degree=8, rng=random.Random(0))
        assert set(spliced.neighbors("c")) == {"a", "b"}

    def test_original_overlay_unchanged(self):
        overlay = Overlay.random_regular(IDS, degree=6, seed=1)
        overlay.with_node("joiner", degree=4, rng=random.Random(0))
        assert "joiner" not in overlay

    def test_duplicate_join_raises(self):
        overlay = Overlay.random_regular(IDS, degree=6, seed=1)
        with pytest.raises(OverlayError):
            overlay.with_node(IDS[0], rng=random.Random(0))


class TestWithoutNode:
    def test_removal_preserves_connectivity(self):
        overlay = Overlay.random_regular(IDS, degree=6, seed=1)
        rng = random.Random(2)
        survivor = overlay
        for victim in IDS[:10]:
            survivor = survivor.without_node(victim, rng=rng)
            assert victim not in survivor
            assert connected(survivor)
        assert len(survivor.node_ids) == 20

    def test_neighbors_rematched(self):
        # A star graph: removing the hub must re-link the leaves.
        leaves = [f"v{i}" for i in range(1, 7)]
        overlay = Overlay({"v0": leaves, **{leaf: ["v0"] for leaf in leaves}})
        pruned = overlay.without_node("v0", rng=random.Random(3))
        assert connected(pruned)
        assert len(pruned.node_ids) == 6

    def test_cannot_remove_last_member(self):
        solo = Overlay.random_regular(["only"], seed=0)
        with pytest.raises(OverlayError):
            solo.without_node("only", rng=random.Random(0))

    def test_unknown_member_raises(self):
        overlay = Overlay.random_regular(IDS[:5], seed=0)
        with pytest.raises(OverlayError):
            overlay.without_node("ghost", rng=random.Random(0))

    def test_churn_storm_keeps_overlay_usable(self):
        """A long alternating join/leave storm never fragments sampling."""
        from repro.besteffs.walks import sample_nodes

        rng = random.Random(4)
        overlay = Overlay.random_regular(IDS, degree=6, seed=1)
        alive = list(IDS)
        for round_no in range(40):
            if round_no % 2 == 0 and len(alive) > 5:
                victim = rng.choice(alive)
                alive.remove(victim)
                overlay = overlay.without_node(victim, rng=rng)
            else:
                joiner = f"j{round_no:02d}"
                alive.append(joiner)
                overlay = overlay.with_node(joiner, degree=6, rng=rng)
            assert connected(overlay)
            sample = sample_nodes(overlay, alive[0], 4, rng)
            assert sample and set(sample) <= set(alive)

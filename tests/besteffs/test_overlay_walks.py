"""Tests for the p2p overlay and random-walk sampling."""

import random

import pytest

from repro.besteffs.overlay import Overlay
from repro.besteffs.walks import random_walk, sample_nodes
from repro.errors import OverlayError

IDS = [f"n{i:03d}" for i in range(50)]


class TestOverlay:
    def test_random_regular_is_connected_and_regular(self):
        overlay = Overlay.random_regular(IDS, degree=6, seed=1)
        assert len(overlay.node_ids) == 50
        assert all(len(overlay.neighbors(node)) == 6 for node in overlay.node_ids)

    def test_small_membership_falls_back_to_complete(self):
        overlay = Overlay.random_regular(["a", "b", "c"], degree=10, seed=0)
        assert len(overlay.node_ids) == 3
        assert set(overlay.neighbors("a")) == {"b", "c"}

    def test_single_node_overlay(self):
        overlay = Overlay.random_regular(["solo"], degree=4, seed=0)
        assert len(overlay.node_ids) == 1
        assert overlay.neighbors("solo") == ()

    def test_small_world_topology(self):
        overlay = Overlay.small_world(IDS, k=6, rewire_p=0.3, seed=2)
        assert len(overlay.node_ids) == 50

    def test_rejects_empty_membership(self):
        with pytest.raises(OverlayError):
            Overlay.random_regular([], seed=0)

    def test_rejects_disconnected_graph(self):
        with pytest.raises(OverlayError, match="connected"):
            Overlay({"a": ["b"], "b": ["a"], "island": []})

    def test_rejects_a_self_loop(self):
        with pytest.raises(OverlayError, match="itself"):
            Overlay({"a": ["a", "b"], "b": ["a"]})

    def test_rejects_an_asymmetric_edge(self):
        with pytest.raises(OverlayError, match="reverse"):
            Overlay({"a": ["b", "c"], "b": ["a"], "c": []})

    def test_rejects_a_neighbour_that_is_not_a_member(self):
        with pytest.raises(OverlayError, match="not a member"):
            Overlay({"a": ["b", "ghost"], "b": ["a"]})

    def test_rejects_a_duplicate_neighbour(self):
        with pytest.raises(OverlayError, match="twice"):
            Overlay({"a": ["b", "b"], "b": ["a"]})

    def test_rejects_an_empty_mapping(self):
        with pytest.raises(OverlayError, match="at least one node"):
            Overlay({})

    def test_neighbour_order_is_the_mapping_order(self):
        overlay = Overlay({"a": ("c", "b"), "b": ["a"], "c": iter(["a"])})
        assert overlay.node_ids == ("a", "b", "c")
        assert overlay.neighbors("a") == ("c", "b")
        assert overlay.neighbors("c") == ("a",)

    def test_unknown_node_queries_raise(self):
        overlay = Overlay.random_regular(IDS[:5], seed=0)
        with pytest.raises(OverlayError):
            overlay.neighbors("ghost")

    def test_membership_check(self):
        overlay = Overlay.random_regular(IDS[:5], seed=0)
        assert IDS[0] in overlay
        assert "ghost" not in overlay


class TestRandomWalk:
    def test_walk_stays_on_the_graph(self):
        overlay = Overlay.random_regular(IDS, degree=6, seed=1)
        rng = random.Random(0)
        for _ in range(20):
            end = random_walk(overlay, IDS[0], 12, rng)
            assert end in overlay

    def test_zero_length_walk_returns_start(self):
        overlay = Overlay.random_regular(IDS, degree=6, seed=1)
        assert random_walk(overlay, IDS[3], 0, random.Random(0)) == IDS[3]

    def test_unknown_start_raises(self):
        overlay = Overlay.random_regular(IDS[:5], seed=0)
        with pytest.raises(OverlayError):
            random_walk(overlay, "ghost", 4, random.Random(0))

    def test_negative_length_raises(self):
        overlay = Overlay.random_regular(IDS[:5], seed=0)
        with pytest.raises(OverlayError):
            random_walk(overlay, IDS[0], -1, random.Random(0))

    def test_walks_mix_over_the_membership(self):
        # After enough walks from a fixed origin the sampled endpoints
        # should cover a large fraction of a 50-node overlay.
        overlay = Overlay.random_regular(IDS, degree=8, seed=3)
        rng = random.Random(1)
        endpoints = {random_walk(overlay, IDS[0], 16, rng) for _ in range(400)}
        assert len(endpoints) > 25


class TestSampleNodes:
    def test_returns_distinct_nodes(self):
        overlay = Overlay.random_regular(IDS, degree=8, seed=3)
        sample = sample_nodes(overlay, IDS[0], 5, random.Random(2))
        assert len(sample) == 5
        assert len(set(sample)) == 5

    def test_small_overlay_returns_what_exists(self):
        overlay = Overlay.random_regular(["a", "b"], seed=0)
        sample = sample_nodes(overlay, "a", 10, random.Random(0))
        assert set(sample) <= {"a", "b"}

    def test_rejects_nonpositive_x(self):
        overlay = Overlay.random_regular(IDS[:5], seed=0)
        with pytest.raises(OverlayError):
            sample_nodes(overlay, IDS[0], 0, random.Random(0))

    def test_deterministic_given_rng(self):
        overlay = Overlay.random_regular(IDS, degree=8, seed=3)
        a = sample_nodes(overlay, IDS[0], 5, random.Random(7))
        b = sample_nodes(overlay, IDS[0], 5, random.Random(7))
        assert a == b


class TestWholeOverlayShortcut:
    def test_x_covering_overlay_returns_every_member(self):
        overlay = Overlay.random_regular(["a", "b", "c"], seed=0)
        sample = sample_nodes(overlay, "a", 3, random.Random(5))
        assert sorted(sample) == ["a", "b", "c"]

    def test_shortcut_leaves_rng_untouched(self):
        # Tiny serving shards hit this on every placement: the walkless
        # path must not perturb the cluster RNG stream.
        overlay = Overlay.random_regular(["a", "b"], seed=0)
        rng = random.Random(5)
        before = rng.getstate()
        sample_nodes(overlay, "a", 10, rng)
        assert rng.getstate() == before

    def test_shortcut_still_validates_start(self):
        overlay = Overlay.random_regular(["a", "b"], seed=0)
        with pytest.raises(OverlayError):
            sample_nodes(overlay, "zz", 5, random.Random(0))

    def test_below_overlay_size_still_walks(self):
        overlay = Overlay.random_regular(IDS, degree=8, seed=3)
        rng = random.Random(5)
        before = rng.getstate()
        sample_nodes(overlay, IDS[0], 5, rng)
        assert rng.getstate() != before


class _SubclassedRandom(random.Random):
    """Forces the string-space walk: the reference the kernel must equal."""


def _reference_sample(overlay, start, x, rng, walk_length, max_attempts_factor=8):
    """``sample_nodes`` as first written: ``rng.choice`` over neighbour tuples."""
    found, attempts = [], 0
    while len(found) < x and attempts < x * max_attempts_factor:
        current = start
        for _ in range(walk_length):
            neighbors = overlay.neighbors(current)
            if not neighbors:
                break
            current = rng.choice(neighbors)
        attempts += 1
        if current not in found:
            found.append(current)
    return found


def _overlays():
    regular = Overlay.random_regular(IDS, degree=8, seed=3)
    spliced = Overlay.random_regular(IDS[:12], degree=3, seed=4)
    joiner = random.Random(9)
    for extra, degree in (("j1", 1), ("j2", 5), ("j3", 2), ("j4", 9)):
        spliced = spliced.with_node(extra, degree=degree, rng=joiner)
    return {
        "regular": regular,
        "odd-degree": Overlay.random_regular(IDS[:20], degree=5, seed=2),
        "small-world": Overlay.small_world(IDS, k=6, rewire_p=0.3, seed=2),
        "single-node": Overlay.random_regular(["solo"], seed=0),
        "spliced": spliced.without_node(IDS[0], rng=joiner),
    }


class TestWalkKernelEqualsTheStringSpaceWalk:
    """Endpoints *and the RNG state left behind* match ``rng.choice`` walks."""

    @pytest.mark.parametrize("name", list(_overlays()))
    def test_random_walk(self, name):
        overlay = _overlays()[name]
        if name == "spliced":
            assert len({len(overlay.neighbors(n)) for n in overlay.node_ids}) > 2  # mixed
        for seed in range(5):
            fast, reference = random.Random(seed), _SubclassedRandom(seed)
            for start in overlay.node_ids[:6]:
                for length in (0, 1, 7, 16):
                    assert random_walk(overlay, start, length, fast) == random_walk(
                        overlay, start, length, reference
                    )
                    assert fast.getstate() == reference.getstate()

    @pytest.mark.parametrize("name", list(_overlays()))
    def test_sample_nodes(self, name):
        overlay = _overlays()[name]
        for seed in range(5):
            fast, subclassed, plain = (
                random.Random(seed), _SubclassedRandom(seed), random.Random(seed)
            )
            for start in overlay.node_ids[:4]:
                for x, walk_length in ((1, 16), (3, 5), (5, 16), (7, 0)):
                    if x >= len(overlay.node_ids):
                        continue  # the whole-overlay shortcut, tested above
                    expected = _reference_sample(overlay, start, x, plain, walk_length)
                    assert sample_nodes(
                        overlay, start, x, fast, walk_length=walk_length
                    ) == expected
                    assert sample_nodes(
                        overlay, start, x, subclassed, walk_length=walk_length
                    ) == expected
                    assert fast.getstate() == plain.getstate() == subclassed.getstate()

    def test_sample_nodes_rejects_a_negative_walk_length(self):
        overlay = Overlay.random_regular(IDS, degree=8, seed=3)
        for rng in (random.Random(0), _SubclassedRandom(0)):
            with pytest.raises(OverlayError):
                sample_nodes(overlay, IDS[0], 3, rng, walk_length=-1)

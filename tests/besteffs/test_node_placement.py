"""Tests for Besteffs nodes and the Section 5.3 placement rule."""

import random

import pytest

from repro.besteffs.node import BesteffsNode
from repro.besteffs.overlay import Overlay
from repro.besteffs.placement import PlacementConfig, choose_unit
from repro.core.importance import DiracImportance
from repro.errors import CapacityError, PlacementError
from repro.units import days, gib
from tests.conftest import make_obj


def cluster_of(n: int, capacity_gib: float = 4.0, seed: int = 0):
    nodes = {f"n{i}": BesteffsNode(f"n{i}", gib(capacity_gib)) for i in range(n)}
    overlay = Overlay.random_regular(list(nodes), seed=seed)
    return nodes, overlay


class TestBesteffsNode:
    def test_probe_reports_direct_store_on_free_space(self):
        node = BesteffsNode("n0", gib(2))
        probe = node.probe(make_obj(1.0), 0.0)
        assert probe.admissible and probe.direct
        assert probe.highest_preempted == 0.0
        assert node.free_bytes == gib(2)
        assert repr(node) == f"BesteffsNode('n0', used=0/{gib(2)})"

    def test_probe_reports_highest_preempted(self):
        node = BesteffsNode("n0", gib(1))
        node.accept(make_obj(1.0, t_arrival=0.0), 0.0)
        now = days(20)
        probe = node.probe(make_obj(1.0, t_arrival=now), now)
        assert probe.admissible and not probe.direct
        assert probe.highest_preempted == pytest.approx(2.0 / 3.0)

    def test_probe_full_for_this_object(self):
        node = BesteffsNode("n0", gib(1))
        node.accept(make_obj(1.0), 0.0)
        probe = node.probe(make_obj(1.0), 0.0)
        assert not probe.admissible

    def test_rejects_empty_node_id(self):
        with pytest.raises(CapacityError):
            BesteffsNode("", gib(1))


class TestPlacementConfig:
    @pytest.mark.parametrize("bad", [
        {"x": 0}, {"m": 0}, {"walk_length": -1},
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(PlacementError):
            PlacementConfig(**bad)


class TestChooseUnit:
    def test_direct_store_on_empty_cluster(self):
        nodes, overlay = cluster_of(10)
        decision, node = choose_unit(
            nodes, overlay, make_obj(1.0), 0.0,
            config=PlacementConfig(x=3, m=2), rng=random.Random(0),
        )
        assert decision.placed and decision.reason == "direct"
        assert node is not None and node.node_id == decision.node_id
        assert decision.chosen_score == 0.0

    def test_rejected_when_all_units_full_for_object(self):
        nodes, overlay = cluster_of(6, capacity_gib=1.0)
        for node in nodes.values():
            node.accept(make_obj(1.0), 0.0)
        weak = make_obj(1.0, lifetime=DiracImportance())
        decision, node = choose_unit(
            nodes, overlay, weak, days(1),
            config=PlacementConfig(x=3, m=3), rng=random.Random(0),
        )
        assert not decision.placed and node is None
        assert decision.reason == "all-full"
        assert decision.rounds_used == 3

    def test_picks_lowest_highest_preempted(self):
        # Three single-object nodes whose residents waned differently;
        # x = cluster size guarantees every node is probed.
        nodes = {}
        arrivals = {"old": 0.0, "mid": days(5), "new": days(10)}
        for name, t in arrivals.items():
            node = BesteffsNode(name, gib(1))
            node.accept(make_obj(1.0, t_arrival=t), t)
            nodes[name] = node
        overlay = Overlay.random_regular(list(nodes), seed=1)
        now = days(22)
        decision, node = choose_unit(
            nodes, overlay, make_obj(1.0, t_arrival=now), now,
            config=PlacementConfig(x=3, m=2), rng=random.Random(3),
        )
        assert decision.placed
        assert decision.node_id == "old"  # most-waned resident
        assert decision.reason == "lowest-preempted"

    def test_direct_store_short_circuits_rounds(self):
        nodes, overlay = cluster_of(8)
        decision, _node = choose_unit(
            nodes, overlay, make_obj(1.0), 0.0,
            config=PlacementConfig(x=2, m=5), rng=random.Random(0),
        )
        assert decision.rounds_used == 1

    def test_unknown_start_node_raises(self):
        nodes, overlay = cluster_of(4)
        with pytest.raises(PlacementError):
            choose_unit(
                nodes, overlay, make_obj(1.0), 0.0,
                config=PlacementConfig(), rng=random.Random(0),
                start_node="ghost",
            )

    def test_empty_cluster_raises(self):
        overlay = Overlay.random_regular(["n0"], seed=0)
        with pytest.raises(PlacementError):
            choose_unit({}, overlay, make_obj(1.0), 0.0,
                        config=PlacementConfig(), rng=random.Random(0))

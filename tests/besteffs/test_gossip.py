"""Tests for decentralised density estimation."""

import random

import pytest

from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.gossip import GossipAverager, sampled_density
from repro.besteffs.placement import PlacementConfig
from repro.errors import OverlayError
from repro.units import gib
from tests.conftest import make_obj


@pytest.fixture
def loaded_cluster():
    cluster = BesteffsCluster(
        {f"n{i:02d}": gib(2) for i in range(24)},
        placement=PlacementConfig(x=4, m=2),
        seed=2,
    )
    rng = random.Random(0)
    for _ in range(30):
        cluster.offer(make_obj(rng.choice([0.5, 1.0])), 0.0)
    return cluster


class TestSampledDensity:
    def test_full_sample_equals_truth(self, loaded_cluster):
        estimate = sampled_density(
            loaded_cluster, 0.0, k=24, rng=random.Random(1)
        )
        assert estimate == pytest.approx(loaded_cluster.mean_density(0.0), abs=1e-9)

    def test_partial_sample_is_close(self, loaded_cluster):
        truth = loaded_cluster.mean_density(0.0)
        estimates = [
            sampled_density(loaded_cluster, 0.0, k=8, rng=random.Random(s))
            for s in range(12)
        ]
        mean_estimate = sum(estimates) / len(estimates)
        assert abs(mean_estimate - truth) < 0.15

    def test_rejects_bad_k(self, loaded_cluster):
        with pytest.raises(OverlayError):
            sampled_density(loaded_cluster, 0.0, k=0, rng=random.Random(0))

    def test_empty_cluster_density_zero(self):
        cluster = BesteffsCluster({"a": gib(1), "b": gib(1)}, seed=0)
        assert sampled_density(cluster, 0.0, k=2, rng=random.Random(0)) == 0.0


def run_rounds(gossip, rounds):
    for _ in range(rounds):
        gossip.round()
    return gossip.spread()


class TestGossipAverager:
    def test_converges_to_capacity_weighted_truth(self, loaded_cluster):
        gossip = GossipAverager(loaded_cluster, 0.0, seed=3)
        initial = gossip.spread()
        final = run_rounds(gossip, 30)
        assert final < initial
        # Every node's local estimate is now usable feedback.
        assert final < 0.02

    def test_spread_decreases_monotonically_in_aggregate(self, loaded_cluster):
        gossip = GossipAverager(loaded_cluster, 0.0, seed=4)
        spreads = []
        for _ in range(15):
            gossip.round()
            spreads.append(gossip.spread())
        assert spreads[-1] < spreads[0]

    def test_conserves_weighted_mass(self, loaded_cluster):
        gossip = GossipAverager(loaded_cluster, 0.0, seed=5)
        def mass():
            return sum(
                s.density * s.weight for s in gossip._states.values()
            )
        before = mass()
        run_rounds(gossip, 10)
        assert mass() == pytest.approx(before, rel=1e-9)

    def test_uniform_start_stays_fixed(self):
        # All nodes identical: gossip should not move anything.
        cluster = BesteffsCluster(
            {f"n{i}": gib(1) for i in range(8)}, seed=0,
            placement=PlacementConfig(x=2, m=1),
        )
        gossip = GossipAverager(cluster, 0.0, seed=1)
        assert run_rounds(gossip, 5) == pytest.approx(0.0, abs=1e-12)

"""Tests for dynamic membership and churn."""

import pytest

from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.membership import ChurnManager, ChurnModel
from repro.besteffs.placement import PlacementConfig
from repro.errors import OverlayError, PlacementError
from repro.sim.recorder import Recorder
from repro.units import days, gib
from tests.conftest import make_obj


@pytest.fixture
def managed():
    recorder = Recorder()
    cluster = BesteffsCluster(
        {f"n{i}": gib(2) for i in range(6)},
        placement=PlacementConfig(x=3, m=2),
        seed=1,
        recorder=recorder,
    )
    return ChurnManager(cluster, overlay_seed=1), cluster, recorder


class TestJoin:
    def test_join_adds_node_and_overlay_member(self, managed):
        manager, cluster, _recorder = managed
        event = manager.join("fresh", gib(4), days(1))
        assert event.kind == "join"
        assert "fresh" in cluster.nodes
        assert "fresh" in cluster.overlay
        assert cluster.capacity_bytes == gib(2) * 6 + gib(4)

    def test_joined_node_receives_placements(self, managed):
        manager, cluster, _recorder = managed
        # Fill every original node solid at importance 1.0.
        for node in list(cluster.nodes.values()):
            node.accept(make_obj(2.0), 0.0)
        manager.join("fresh", gib(4), days(1))
        # Sampling is probabilistic (random walks); within a handful of
        # offers the only non-full node must be found.
        placements = []
        for _ in range(6):
            decision, _result = cluster.offer(
                make_obj(1.0, t_arrival=days(1)), days(1)
            )
            if decision.placed:
                placements.append(decision.node_id)
        assert placements
        assert set(placements) == {"fresh"}

    def test_duplicate_join_rejected(self, managed):
        manager, _cluster, _recorder = managed
        with pytest.raises(OverlayError):
            manager.join("n0", gib(1), 0.0)

    def test_joined_node_feeds_the_recorder(self, managed):
        manager, cluster, recorder = managed
        manager.join("fresh", gib(1), 0.0)
        node = cluster.nodes["fresh"]
        node.accept(make_obj(1.0), 0.0)
        node.store.remove(next(node.store.iter_residents()).object_id, days(1))
        assert any(r.unit == "fresh" for r in recorder.evictions)


class TestLeave:
    def test_leave_loses_residents(self, managed):
        manager, cluster, _recorder = managed
        obj = make_obj(1.0)
        decision, _result = cluster.offer(obj, 0.0)
        home = decision.node_id
        event = manager.leave(home, days(1))
        assert event.kind == "leave"
        assert [r.obj.object_id for r in event.lost] == [obj.object_id]
        assert event.lost[0].reason == "node-departure"
        assert [record.obj.size for record in event.lost] == [obj.size]
        assert obj.object_id not in cluster

    def test_leave_unknown_raises(self, managed):
        manager, _cluster, _recorder = managed
        with pytest.raises(OverlayError):
            manager.leave("ghost", 0.0)

    def test_cannot_remove_last_node(self):
        cluster = BesteffsCluster({"only": gib(1)}, seed=0)
        manager = ChurnManager(cluster)
        with pytest.raises(PlacementError):
            manager.leave("only", 0.0)

    def test_overlay_shrinks_with_membership(self, managed):
        manager, cluster, _recorder = managed
        manager.leave("n0", 0.0)
        assert "n0" not in cluster.overlay
        assert len(cluster.overlay) == 5

    def test_lost_objects_accumulate(self, managed):
        manager, cluster, _recorder = managed
        for i in range(3):
            cluster.offer(make_obj(0.5), 0.0)
        total_before = cluster.resident_count()
        manager.leave("n0", days(1))
        manager.leave("n1", days(2))
        assert len(manager.lost_objects()) == total_before - cluster.resident_count()


class TestChurnModel:
    def test_apply_respects_fractions(self, managed):
        manager, cluster, _recorder = managed
        model = ChurnModel(
            interval_minutes=days(30),
            leave_fraction=0.34,
            join_per_interval=1,
            join_capacity_bytes=gib(3),
            seed=5,
        )
        events = model.apply(manager, days(30))
        leaves = [e for e in events if e.kind == "leave"]
        joins = [e for e in events if e.kind == "join"]
        assert len(leaves) == 2  # 34% of 6
        assert len(joins) == 1
        assert len(cluster.nodes) == 5

    def test_never_empties_the_cluster(self):
        cluster = BesteffsCluster({"a": gib(1), "b": gib(1)}, seed=0)
        manager = ChurnManager(cluster)
        model = ChurnModel(
            interval_minutes=days(1),
            leave_fraction=0.99,
            join_per_interval=0,
            join_capacity_bytes=gib(1),
        )
        model.apply(manager, days(1))
        assert len(cluster.nodes) >= 1

    def test_rejects_invalid_parameters(self):
        with pytest.raises(PlacementError):
            ChurnModel(interval_minutes=0, leave_fraction=0.1,
                       join_per_interval=1, join_capacity_bytes=1)
        with pytest.raises(PlacementError):
            ChurnModel(interval_minutes=1, leave_fraction=1.0,
                       join_per_interval=1, join_capacity_bytes=1)
        with pytest.raises(PlacementError):
            ChurnModel(interval_minutes=1, leave_fraction=0.1,
                       join_per_interval=-1, join_capacity_bytes=1)

    def test_deterministic_for_seed_and_time(self, managed):
        manager, cluster, _recorder = managed
        model = ChurnModel(
            interval_minutes=days(30), leave_fraction=0.5,
            join_per_interval=0, join_capacity_bytes=gib(1), seed=3,
        )
        survivors_a = None
        events = model.apply(manager, days(30))
        survivors_a = sorted(cluster.nodes)
        # Rebuild an identical cluster and replay: same victims.
        cluster2 = BesteffsCluster(
            {f"n{i}": gib(2) for i in range(6)},
            placement=PlacementConfig(x=3, m=2), seed=1,
        )
        manager2 = ChurnManager(cluster2, overlay_seed=1)
        model2 = ChurnModel(
            interval_minutes=days(30), leave_fraction=0.5,
            join_per_interval=0, join_capacity_bytes=gib(1), seed=3,
        )
        model2.apply(manager2, days(30))
        assert sorted(cluster2.nodes) == survivors_a

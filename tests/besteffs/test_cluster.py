"""Tests for the Besteffs cluster facade."""

import pytest

from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.placement import PlacementConfig
from repro.core.policies.palimpsest import PalimpsestPolicy
from repro.errors import PlacementError, UnknownObjectError
from repro.sim.recorder import Recorder
from repro.units import days, gib
from tests.conftest import make_obj
from tests.oracles.replay import check_replay


def small_cluster(n=6, capacity_gib=2.0, **kwargs):
    return BesteffsCluster(
        {f"n{i}": gib(capacity_gib) for i in range(n)},
        placement=PlacementConfig(x=3, m=2),
        seed=1,
        **kwargs,
    )


class TestOfferAndLocate:
    def test_offer_places_and_locates(self):
        cluster = small_cluster()
        obj = make_obj(1.0)
        decision, result = cluster.offer(obj, 0.0)
        assert decision.placed and result is not None and result.admitted
        assert obj.object_id in cluster
        assert cluster.locate(obj.object_id).node_id == decision.node_id

    def test_locate_unknown_raises(self):
        cluster = small_cluster()
        with pytest.raises(UnknownObjectError):
            cluster.locate("ghost")

    def test_eviction_clears_location(self):
        cluster = small_cluster(n=1, capacity_gib=1.0)
        first = make_obj(1.0, t_arrival=0.0)
        cluster.offer(first, 0.0)
        now = days(20)
        second = make_obj(1.0, t_arrival=now)
        decision, result = cluster.offer(second, now)
        assert decision.placed
        assert first.object_id not in cluster
        with pytest.raises(UnknownObjectError):
            cluster.locate(first.object_id)

    def test_rejection_counted(self):
        cluster = small_cluster(n=2, capacity_gib=1.0)
        cluster.offer(make_obj(1.0), 0.0)
        cluster.offer(make_obj(1.0), 0.0)
        decision, result = cluster.offer(make_obj(1.0), 0.0)  # all full
        assert not decision.placed and result is None
        assert cluster.rejected_count == 1

    def test_rejects_empty_cluster(self):
        with pytest.raises(PlacementError):
            BesteffsCluster({})


class TestAggregates:
    def test_capacity_and_usage(self):
        cluster = small_cluster(n=4, capacity_gib=2.0)
        assert cluster.capacity_bytes == gib(8)
        cluster.offer(make_obj(1.0), 0.0)
        assert cluster.used_bytes == gib(1)
        assert cluster.resident_count() == 1

    def test_mean_density_is_capacity_weighted(self):
        cluster = BesteffsCluster(
            {"big": gib(3), "small": gib(1)}, seed=0,
            placement=PlacementConfig(x=2, m=1),
        )
        obj = make_obj(1.0)
        cluster.offer(obj, 0.0)
        # One importance-1 GiB among 4 GiB total capacity.
        assert cluster.mean_density(0.0) == pytest.approx(0.25)

    def test_stored_bytes_by_creator(self):
        cluster = small_cluster()
        cluster.offer(make_obj(1.0, creator="university"), 0.0)
        cluster.offer(make_obj(0.5, creator="student"), 0.0)
        by_creator = cluster.stored_bytes_by_creator()
        assert by_creator["university"] == gib(1)
        assert by_creator["student"] == gib(0.5)

    def test_stats_snapshot(self):
        cluster = small_cluster()
        cluster.offer(make_obj(1.0), 0.0)
        stats = cluster.stats(0.0)
        assert stats.nodes == 6
        assert stats.placed == 1
        assert stats.rejected == 0
        assert stats.mean_rounds >= 1.0
        assert stats.mean_probes >= 1.0


class TestIntegration:
    def test_recorder_sees_cluster_events(self):
        recorder = Recorder()
        cluster = small_cluster(n=2, capacity_gib=1.0, recorder=recorder)
        cluster.offer(make_obj(1.0), 0.0)
        cluster.offer(make_obj(1.0), 0.0)
        cluster.offer(make_obj(1.0), 0.0)  # rejected
        cluster.offer(make_obj(1.0, t_arrival=days(20)), days(20))  # preempts
        assert len(recorder.arrivals) == 4
        assert sum(1 for a in recorder.arrivals if not a.admitted) == 1
        assert len(recorder.evictions) == 1

    def test_recorder_counts_the_cluster_refusals(self):
        recorder = Recorder()
        cluster = small_cluster(n=2, capacity_gib=1.0, recorder=recorder)
        for _ in range(3):
            cluster.offer(make_obj(1.0), 0.0)
        # The cluster refused the third offer before any unit saw it.
        assert cluster.rejected_count == 1 and not recorder.rejections
        assert recorder.summary()["rejected"] == 1.0
        check_replay(recorder, [node.store for node in cluster.nodes.values()])

    def test_policy_factory_builds_baseline_clusters(self):
        cluster = BesteffsCluster(
            {f"n{i}": gib(1) for i in range(3)},
            seed=0,
            placement=PlacementConfig(x=3, m=1),
            policy_factory=PalimpsestPolicy,
        )
        # A FIFO cluster never rejects: same-importance overwrites succeed.
        for i in range(9):
            decision, _result = cluster.offer(
                make_obj(1.0, t_arrival=float(i)), float(i)
            )
            assert decision.placed
        assert cluster.rejected_count == 0

    def test_capacity_invariant_cluster_wide(self):
        cluster = small_cluster(n=3, capacity_gib=1.0)
        now = 0.0
        for i in range(40):
            cluster.offer(make_obj(0.7, t_arrival=now), now)
            assert cluster.used_bytes <= cluster.capacity_bytes
            now += days(2)

"""Tests for the distributed filesystem facade."""

import pytest

from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.membership import ChurnManager
from repro.besteffs.placement import PlacementConfig
from repro.core.importance import TwoStepImportance
from repro.errors import StorageFullError
from repro.fs import ClusterFS, FileFadedError
from repro.units import days, mib


def two_step(p=1.0, persist=15.0, wane=15.0):
    return TwoStepImportance(p=p, t_persist=days(persist), t_wane=days(wane))


@pytest.fixture
def cfs():
    cluster = BesteffsCluster(
        {f"desk-{i}": mib(8) for i in range(4)},
        placement=PlacementConfig(x=4, m=2),
        seed=2,
    )
    return ClusterFS(cluster)


class TestBasics:
    def test_round_trip_and_location(self, cfs):
        cfs.write("/docs/a", b"hello", 0.0, lifetime=two_step())
        assert cfs.read("/docs/a", 1.0) == b"hello"
        assert cfs.node_of("/docs/a") in cfs.cluster.nodes
        assert cfs.listdir("/docs") == ["/docs/a"]
        assert "/docs/a" in cfs and "/docs/b" not in cfs
        assert list(cfs.files()) == ["/docs/a"]

    def test_stat_reports_holding_state(self, cfs):
        cfs.write("/v", b"x" * mib(1), 0.0, lifetime=two_step())
        stat = cfs.stat("/v", days(22.5))
        assert stat.importance == pytest.approx(0.5)
        assert stat.size == mib(1)

    def test_overwrite_keeps_single_version(self, cfs):
        cfs.write("/f", b"old", 0.0, lifetime=two_step())
        cfs.write("/f", b"new", 1.0, lifetime=two_step())
        assert cfs.read("/f", 2.0) == b"new"
        assert len(cfs) == 1
        assert cfs.cluster.resident_count() == 1

    def test_default_annotations_by_path(self, cfs):
        cfs.write("/tmp/junk", b"j", 0.0)
        cfs.write("/home/me/doc", b"d", 0.0)
        assert (
            cfs.stat("/tmp/junk", 0.0).importance
            < cfs.stat("/home/me/doc", 0.0).importance
        )

    def test_cluster_full_raises(self, cfs):
        for i in range(40):
            try:
                cfs.write(f"/bulk/{i:02d}", b"x" * mib(1), 0.0, lifetime=two_step())
            except StorageFullError:
                break
        else:
            pytest.fail("cluster never filled")
        # Full for equal importance, but files are all still intact.
        assert len(cfs) == cfs.cluster.resident_count()


class TestFadingAndDepartures:
    def test_pressure_fades_low_importance_files(self, cfs):
        for i in range(32):
            try:
                cfs.write(f"/low/{i:02d}", b"x" * mib(1), 0.0,
                          lifetime=two_step(p=0.4))
            except StorageFullError:
                break
        cfs.write("/high", b"h" * mib(1), 1.0, lifetime=two_step(p=1.0))
        assert cfs.faded()
        with pytest.raises(FileFadedError):
            cfs.read(cfs.faded()[0], 2.0)

    def test_node_departure_fades_its_files(self, cfs):
        cfs.write("/doomed", b"x" * mib(1), 0.0, lifetime=two_step())
        home = cfs.node_of("/doomed")
        manager = ChurnManager(cfs.cluster, overlay_seed=1)
        manager.leave(home, days(1))
        assert "/doomed" in cfs.faded()
        with pytest.raises(FileFadedError, match="departure|reclaimed"):
            cfs.read("/doomed", days(2))

    def test_joined_nodes_are_tracked_after_sync(self, cfs):
        manager = ChurnManager(cfs.cluster, overlay_seed=1)
        manager.join("desk-new", mib(8), 0.0)
        cfs.sync_membership()
        # Fill old nodes; new writes land on the joiner and are tracked.
        paths = []
        for i in range(24):
            try:
                path = f"/spread/{i:02d}"
                cfs.write(path, b"x" * mib(1), 0.0, lifetime=two_step())
                paths.append(path)
            except StorageFullError:
                break
        on_joiner = [p for p in paths if cfs.node_of(p) == "desk-new"]
        assert on_joiner
        # Departure of the joiner fades exactly its files.
        manager.leave("desk-new", days(1))
        assert set(on_joiner) <= set(cfs.faded())

    def test_explicit_remove_does_not_fade(self, cfs):
        cfs.write("/f", b"x", 0.0)
        cfs.remove("/f", 1.0)
        assert cfs.faded() == []
        with pytest.raises(FileNotFoundError):
            cfs.read("/f", 2.0)

    def test_density_is_cluster_wide(self, cfs):
        cfs.write("/f", b"x" * mib(8), 0.0, lifetime=two_step(p=1.0))
        assert cfs.density(0.0) == pytest.approx(8 / 32)

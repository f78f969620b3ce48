"""Tests for the distributed filesystem facade.

The namespace both front ends share (listdir, fading, stat, removal, path
and data validation) is tested over both in ``test_filesystem.py``; these
are the cluster's own: location, placement refusal, departures and joins.
"""

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


def spread(cfs, n=24):
    """Write 1 MiB files until the cluster refuses one; return their paths."""
    paths = []
    for i in range(n):
        try:
            path = f"/spread/{i:02d}"
            cfs.write(path, b"x" * mib(1), 0.0, lifetime=two_step())
            paths.append(path)
        except StorageFullError:
            break
    return paths


class TestBasics:
    def test_node_of_names_the_holder(self, cfs):
        cfs.write("/docs/a", b"hello", 0.0, lifetime=two_step())
        node_id = cfs.node_of("/docs/a")
        held = cfs.cluster.nodes[node_id].store.iter_residents()
        assert [obj.size for obj in held] == [len(b"hello")]
        with pytest.raises(FileNotFoundError):
            cfs.node_of("/docs/b")

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
        # Fill old nodes; new writes land on the joiner and are tracked.
        paths = spread(cfs)
        on_joiner = [p for p in paths if cfs.node_of(p) == "desk-new"]
        assert on_joiner
        # Departure of the joiner fades exactly its files.
        manager.leave("desk-new", days(1))
        assert set(on_joiner) <= set(cfs.faded())

    def test_a_joiners_lost_files_read_as_faded(self, cfs):
        # A node that joins after the mount is tracked with no resync: when
        # it leaves, its files are gone from the namespace and read faded.
        manager = ChurnManager(cfs.cluster, overlay_seed=1)
        manager.join("desk-new", mib(8), 0.0)
        paths, on_joiner = [], []
        for i in range(80):
            path = f"/spread/{i:02d}"
            try:
                cfs.write(path, b"x" * mib(1), 0.0, lifetime=two_step())
            except StorageFullError:
                continue
            paths.append(path)
            if cfs.node_of(path) == "desk-new":
                on_joiner.append(path)
            if len(on_joiner) == 8:  # the joiner is full
                break
        assert len(on_joiner) == 8
        manager.leave("desk-new", days(1))
        listed = cfs.listdir("/")
        assert sorted(on_joiner) == [p for p in cfs.faded() if p in on_joiner]
        for path in on_joiner:
            assert not cfs.exists(path) and path not in listed
            with pytest.raises(FileFadedError):
                cfs.read(path, days(2))
        assert sorted(set(paths) - set(on_joiner)) == listed

    def test_density_is_cluster_wide(self, cfs):
        cfs.write("/f", b"x" * mib(8), 0.0, lifetime=two_step(p=1.0))
        assert cfs.density(0.0) == pytest.approx(8 / 32)

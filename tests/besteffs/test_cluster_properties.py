"""Property-based tests of cluster-level invariants (hypothesis).

DESIGN.md invariant 7: Besteffs placement never chooses a unit whose
highest preempted importance is >= the incoming object's current
importance — plus location-index consistency and cluster-wide capacity
under random offer sequences.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.placement import PlacementConfig
from repro.core.importance import TwoStepImportance
from repro.core.obj import StoredObject
from repro.units import days

NODE_CAPACITY = 1000  # bytes; tiny sizes keep shrinking readable


@st.composite
def offer_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    return draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=int(days(3))).map(float),    # dt
                st.integers(min_value=1, max_value=NODE_CAPACITY),              # size
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),       # p
                st.floats(min_value=0.0, max_value=days(10), allow_nan=False),  # persist
                st.floats(min_value=0.0, max_value=days(10), allow_nan=False),  # wane
            ),
            min_size=n,
            max_size=n,
        )
    )


def build_cluster(seed=0):
    return BesteffsCluster(
        {f"n{i}": NODE_CAPACITY for i in range(5)},
        placement=PlacementConfig(x=3, m=2),
        seed=seed,
    )


@given(steps=offer_sequences(), seed=st.integers(min_value=0, max_value=7))
@settings(max_examples=80, deadline=None)
def test_placement_respects_strict_preemption(steps, seed):
    cluster = build_cluster(seed)
    now = 0.0
    for i, (dt, size, p, persist, wane) in enumerate(steps):
        now += dt
        obj = StoredObject(
            size=size,
            t_arrival=now,
            lifetime=TwoStepImportance(p=p, t_persist=persist, t_wane=wane),
            object_id=f"c{seed}-{i}",
        )
        decision, result = cluster.offer(obj, now)
        if decision.placed:
            assert result is not None and result.admitted
            incoming = obj.importance_at(now)
            # Invariant 7: never displace equal-or-higher importance.
            for record in result.evictions:
                assert (
                    record.importance_at_eviction < incoming
                    or record.importance_at_eviction == 0.0
                )
            # A direct store displaced nothing live.
            if decision.reason == "direct":
                assert all(
                    r.importance_at_eviction == 0.0 for r in result.evictions
                )
        # Cluster-wide capacity invariant.
        assert cluster.used_bytes <= cluster.capacity_bytes


@given(steps=offer_sequences())
@settings(max_examples=50, deadline=None)
def test_location_index_matches_reality(steps):
    cluster = build_cluster()
    now = 0.0
    placed_ids = []
    for i, (dt, size, p, persist, wane) in enumerate(steps):
        now += dt
        obj = StoredObject(
            size=size,
            t_arrival=now,
            lifetime=TwoStepImportance(p=p, t_persist=persist, t_wane=wane),
            object_id=f"loc-{i}",
        )
        decision, _result = cluster.offer(obj, now)
        if decision.placed:
            placed_ids.append(obj.object_id)
    # Every object the index claims to hold is really resident on the
    # claimed node, and nothing resident is missing from the index.
    for object_id in placed_ids:
        if object_id in cluster:
            node = cluster.locate(object_id)
            assert object_id in node.store
    indexed = {oid for oid in placed_ids if oid in cluster}
    resident = {
        obj.object_id
        for node in cluster.nodes.values()
        for obj in node.store.iter_residents()
    }
    assert indexed == resident


@given(steps=offer_sequences())
@settings(max_examples=50, deadline=None)
def test_cluster_density_bounded(steps):
    cluster = build_cluster()
    now = 0.0
    for i, (dt, size, p, persist, wane) in enumerate(steps):
        now += dt
        obj = StoredObject(
            size=size,
            t_arrival=now,
            lifetime=TwoStepImportance(p=p, t_persist=persist, t_wane=wane),
            object_id=f"d-{i}",
        )
        cluster.offer(obj, now)
        assert 0.0 <= cluster.mean_density(now) <= 1.0 + 1e-12

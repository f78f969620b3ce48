"""Per-creator byte totals: differential and unit coverage.

The :class:`~repro.core.slab.ResidentSlab` keeps a unit's resident bytes
per creator incrementally; a scan of the residents
(:class:`tests.oracles.ScanSlab`) is the oracle.  Twin stores — one with
the tally, one with the scan injected — are fed identical randomized
workloads and must agree on every observable: admission outcomes,
eviction records (expiry order included), per-creator byte totals,
occupancy and the residents themselves.
"""

import inspect
import random

import pytest

import repro.core.store as store_module
from repro.core.importance import ConstantImportance, FixedLifetimeImportance
from repro.core.index import ImportanceIndex
from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.slab import ResidentSlab
from repro.core.store import StorageUnit
from tests.core.test_index_differential import (
    assert_evictions_equal,
    assert_plans_equal,
    random_lifetime,
)
from tests.oracles import ScanSlab, oracle_store

CAPACITY = 50_000
CREATORS = ("university", "student", "archive")


def _twin_step(rng, step, now, slab_store, dict_store):
    action = rng.random()
    if action < 0.70:
        obj = StoredObject(
            size=rng.randint(100, 6000),
            t_arrival=now,
            lifetime=random_lifetime(rng),
            object_id=f"o-{step}",
            creator=rng.choice(CREATORS),
        )
        plan_s = slab_store.peek_admission(obj, now)
        plan_d = dict_store.peek_admission(obj, now)
        assert_plans_equal(plan_d, plan_s, step)
        res_s = slab_store.offer(obj, now)
        res_d = dict_store.offer(obj, now)
        assert res_s.admitted == res_d.admitted, f"step {step}"
        assert_evictions_equal(res_d.evictions, res_s.evictions, step)
    elif action < 0.85:
        assert_evictions_equal(
            dict_store.reclaim_expired(now), slab_store.reclaim_expired(now), step
        )
    elif len(dict_store):
        victim = rng.choice(sorted(o.object_id for o in dict_store.iter_residents()))
        assert_evictions_equal(
            [dict_store.remove(victim, now)], [slab_store.remove(victim, now)], step
        )


@pytest.mark.parametrize("seed", [11, 404])
@pytest.mark.parametrize("indexed", [True, False])
def test_slab_layout_matches_dict_layout(seed, indexed):
    """Twin randomized workload: the tally against its scan oracle.

    Both stores carry the same index — the real one, or with
    ``indexed=False`` the scan oracle on both sides — so a disagreement
    can only come from the tally.
    """
    rng = random.Random(seed)
    slab_store = oracle_store(
        CAPACITY, TemporalImportancePolicy(), name="slab",
        scan_index=not indexed, scan_slab=False,
    )
    dict_store = oracle_store(
        CAPACITY, TemporalImportancePolicy(), name="dict",
        scan_index=not indexed, scan_slab=True,
    )
    assert isinstance(slab_store.resident_slab, ResidentSlab)
    assert isinstance(dict_store.resident_slab, ScanSlab)

    now = 0.0
    for step in range(900):
        now += float(round(rng.uniform(0.0, 25.0)))
        _twin_step(rng, step, now, slab_store, dict_store)
        assert slab_store.used_bytes == dict_store.used_bytes, f"step {step}"
        assert (
            slab_store.bytes_by_creator() == dict_store.bytes_by_creator()
        ), f"step {step}"
        assert list(slab_store.iter_residents()) == list(dict_store.iter_residents())


def _obj(oid, *, size=100, t=0.0, expire=50.0, creator="u"):
    return StoredObject(
        size=size,
        t_arrival=t,
        lifetime=FixedLifetimeImportance(p=0.5, expire_after=expire),
        object_id=oid,
        creator=creator,
    )


class TestResidentSlab:
    def test_bytes_by_creator_tracks_increments(self):
        slab = ResidentSlab()
        a, c = _obj("a", size=100, creator="u"), _obj("c", size=60, creator="u")
        slab.add(a)
        slab.add(_obj("b", size=40, creator="s"))
        slab.add(c)
        assert slab.bytes_by_creator() == {"u": 160, "s": 40}
        slab.discard(a)
        assert slab.bytes_by_creator() == {"u": 60, "s": 40}
        slab.discard(c)
        # Zeroed creators vanish from the tally, matching the dict scan.
        assert slab.bytes_by_creator() == {"s": 40}
        slab.add(a)
        # A returning creator keeps its first-seen position.
        assert list(slab.bytes_by_creator()) == ["u", "s"]


class TestStoreLayout:
    """One configuration: no constructor knob or module default selects
    how a unit holds its residents."""

    def test_default_layout_is_slab(self):
        store = StorageUnit(1000, TemporalImportancePolicy())
        assert isinstance(store.resident_slab, ResidentSlab)
        assert isinstance(store.importance_index, ImportanceIndex)
        for name in ("DEFAULT_LAYOUT", "DEFAULT_INDEXED"):
            assert not hasattr(store_module, name)
            assert name not in store_module.__all__

    def test_unknown_layout_is_rejected(self):
        parameters = inspect.signature(StorageUnit.__init__).parameters
        assert "layout" not in parameters and "indexed" not in parameters
        with pytest.raises(TypeError):
            StorageUnit(1000, TemporalImportancePolicy(), layout="dict")
        with pytest.raises(TypeError):
            StorageUnit(1000, TemporalImportancePolicy(), indexed=False)

    def test_bytes_by_creator_agrees_with_a_resident_scan(self):
        store = StorageUnit(10_000, TemporalImportancePolicy())
        store.offer(
            StoredObject(
                size=700, t_arrival=0.0,
                lifetime=ConstantImportance(p=0.9),
                object_id="u1", creator="university",
            ),
            0.0,
        )
        store.offer(
            StoredObject(
                size=300, t_arrival=0.0,
                lifetime=ConstantImportance(p=0.4),
                object_id="s1", creator="student",
            ),
            0.0,
        )
        scan = {}
        for resident in store.iter_residents():
            scan[resident.creator] = scan.get(resident.creator, 0) + resident.size
        assert store.bytes_by_creator() == scan == {
            "university": 700, "student": 300,
        }

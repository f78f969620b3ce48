"""Slab-backed resident state: differential and unit coverage.

The :class:`~repro.core.slab.ResidentSlab` is a secondary, array-backed
representation of a store's residents; a scan of the dict of objects
(:class:`tests.oracles.ScanSlab`) is the oracle.  Twin stores — one with
the slab, one with the scan injected — are fed identical randomized
workloads and must agree on every observable: admission outcomes,
eviction records (expiry order included), per-creator byte totals and
occupancy.  :meth:`ResidentSlab.validate` cross-checks every column
against the oracle along the way.
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
from repro.errors import ReproError
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
        victim = rng.choice(sorted(oid for oid in dict_store._residents))
        assert_evictions_equal(
            [dict_store.remove(victim, now)], [slab_store.remove(victim, now)], step
        )


@pytest.mark.parametrize("seed", [11, 404])
@pytest.mark.parametrize("indexed", [True, False])
def test_slab_layout_matches_dict_layout(seed, indexed):
    """Twin randomized workload: the slab against its scan oracle.

    Both stores carry the same index — the real one, or with
    ``indexed=False`` the scan oracle on both sides — so a disagreement
    can only come from the slab.
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
        now += rng.uniform(0.0, 25.0)
        _twin_step(rng, step, now, slab_store, dict_store)
        assert slab_store.used_bytes == dict_store.used_bytes, f"step {step}"
        assert (
            slab_store.bytes_by_creator() == dict_store.bytes_by_creator()
        ), f"step {step}"
        if step % 150 == 0:
            assert slab_store.resident_slab.validate(slab_store._residents)
    assert slab_store.resident_slab.validate(slab_store._residents)


def _obj(oid, *, size=100, t=0.0, expire=50.0, creator="u"):
    return StoredObject(
        size=size,
        t_arrival=t,
        lifetime=FixedLifetimeImportance(p=0.5, expire_after=expire),
        object_id=oid,
        creator=creator,
    )


class TestResidentSlab:
    def test_slots_recycle_through_the_free_list(self):
        slab = ResidentSlab()
        assert slab.add(_obj("a")) == 0
        assert slab.add(_obj("b")) == 1
        slab.discard("a")
        assert slab.add(_obj("c")) == 0  # reuses a's slot
        assert slab.slots == 2
        assert len(slab) == 2

    def test_discard_is_idempotent_and_add_rejects_duplicates(self):
        slab = ResidentSlab()
        slab.add(_obj("a"))
        slab.discard("missing")
        slab.discard("a")
        slab.discard("a")
        assert len(slab) == 0
        slab.add(_obj("a"))
        with pytest.raises(ReproError):
            slab.add(_obj("a"))

    def test_bytes_by_creator_tracks_increments(self):
        slab = ResidentSlab()
        slab.add(_obj("a", size=100, creator="u"))
        slab.add(_obj("b", size=40, creator="s"))
        slab.add(_obj("c", size=60, creator="u"))
        assert slab.bytes_by_creator() == {"u": 160, "s": 40}
        slab.discard("a")
        assert slab.bytes_by_creator() == {"u": 60, "s": 40}
        slab.discard("c")
        # Zeroed creators vanish from the tally, matching the dict scan.
        assert slab.bytes_by_creator() == {"s": 40}
        assert slab.used_bytes == 40

    def test_validate_catches_a_stale_column(self):
        """Every column the slab keeps is cross-checked, one at a time."""
        obj, other = _obj("a", size=100, creator="u"), _obj("b", size=100, creator="s")

        def corrupt_size(slab):
            slab._size[0] = 99

        def corrupt_creator(slab):
            slab._creator_code[0] = slab._creator_code[1]

        def corrupt_slot_map(slab):
            slab._slot_of["a"], slab._slot_of["b"] = 1, 0

        def corrupt_oids(slab):
            slab._oids[0] = "ghost"

        def corrupt_free_list(slab):
            slab._free.append(0)

        def corrupt_creator_total(slab):
            slab._creator_bytes[0] += 1

        def corrupt_byte_total(slab):
            slab._used_bytes += 1

        for corrupt in (
            corrupt_size, corrupt_creator, corrupt_slot_map, corrupt_oids,
            corrupt_free_list, corrupt_creator_total, corrupt_byte_total,
        ):
            slab = ResidentSlab()
            slab.add(obj)
            slab.add(other)
            residents = {"a": obj, "b": other}
            assert slab.validate(residents)
            corrupt(slab)
            with pytest.raises(ReproError):
                slab.validate(residents)


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

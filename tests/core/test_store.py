"""Unit tests for the storage unit (capacity, admission, records)."""

import pytest

from repro.core.density import importance_density
from repro.core.importance import FixedLifetimeImportance
from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.policy import AdmissionPlan
from repro.core.store import StorageUnit
from repro.errors import CapacityError, SimulationError, UnknownObjectError
from repro.units import days, gib
from tests.conftest import make_obj


def _creator_scan(store):
    scan = {}
    for obj in store.iter_residents():
        scan[obj.creator] = scan.get(obj.creator, 0) + obj.size
    return scan


class TestConstruction:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(CapacityError):
            StorageUnit(0, TemporalImportancePolicy())
        with pytest.raises(CapacityError):
            StorageUnit(-5, TemporalImportancePolicy())

    def test_rejects_float_capacity(self):
        with pytest.raises(CapacityError):
            StorageUnit(1.5e9, TemporalImportancePolicy())

    def test_rejects_bool_capacity(self):
        # ``True`` is an int; a unit of it would hold one byte.
        with pytest.raises(CapacityError):
            StorageUnit(True, TemporalImportancePolicy())

    def test_starts_empty(self, temporal_store):
        assert temporal_store.used_bytes == 0
        assert temporal_store.free_bytes == temporal_store.capacity_bytes
        assert len(temporal_store) == 0
        assert temporal_store.utilization() == 0.0


class TestOffer:
    def test_admits_into_free_space(self, temporal_store):
        result = temporal_store.offer(make_obj(1.0), 0.0)
        assert result.admitted
        assert result.plan.reason == "free-space"
        assert temporal_store.used_bytes == gib(1)
        assert temporal_store.accepted_count == 1

    def test_rejects_duplicate_ids(self, temporal_store):
        obj = make_obj(1.0)
        temporal_store.offer(obj, 0.0)
        with pytest.raises(CapacityError, match="already stored"):
            temporal_store.offer(obj, 1.0)

    def test_rejects_oversized_object(self, temporal_store):
        result = temporal_store.offer(make_obj(11.0), 0.0)
        assert not result.admitted
        assert result.plan.reason == "object-too-large"

    def test_rejection_has_no_side_effects(self, temporal_store):
        for _ in range(10):
            temporal_store.offer(make_obj(1.0), 0.0)
        residents_before = sorted(o.object_id for o in temporal_store.iter_residents())
        result = temporal_store.offer(make_obj(1.0), 0.0)  # same importance: full
        assert not result.admitted
        residents_after = sorted(o.object_id for o in temporal_store.iter_residents())
        assert residents_before == residents_after
        assert temporal_store.rejected_count == 1
        assert temporal_store.rejections[0].reason == "full-for-importance"

    def test_preemption_is_atomic(self, temporal_store):
        for _ in range(10):
            temporal_store.offer(make_obj(1.0, t_arrival=0.0), 0.0)
        now = days(20)  # residents waned to ~0.67
        result = temporal_store.offer(make_obj(2.0, t_arrival=now), now)
        assert result.admitted
        assert len(result.evictions) == 2
        assert temporal_store.used_bytes == gib(10)
        assert temporal_store.resident_count == 9

    @staticmethod
    def _state(store):
        return (
            store.stats(),
            [o.object_id for o in store.iter_residents()],
            store.bytes_by_creator(),
            len(store.evictions),
            len(store.rejections),
        )

    def test_stale_plan_raises_before_any_eviction(self, temporal_store):
        """A plan whose victim already left must not cost the others."""
        for _ in range(10):
            temporal_store.offer(make_obj(1.0, t_arrival=0.0), 0.0)
        now = days(20)  # residents waned to ~0.67
        incoming = make_obj(2.0, t_arrival=now)
        plan = temporal_store.peek_admission(incoming, now)
        assert plan.admit and len(plan.victims) == 2
        # The store mutates between probe and commit: the *second* victim
        # leaves, so a victim-by-victim commit would lose the first.
        temporal_store.remove(plan.victims[1].object_id, now)
        before = self._state(temporal_store)
        with pytest.raises(UnknownObjectError, match="stale plan"):
            temporal_store.offer(incoming, now, plan=plan)
        assert self._state(temporal_store) == before
        assert plan.victims[0].object_id in temporal_store
        assert temporal_store.importance_index.check(now)
        assert temporal_store.bytes_by_creator() == _creator_scan(temporal_store)

    def test_infeasible_plan_raises_before_any_eviction(self, temporal_store):
        """A policy that frees too little raises with nothing evicted."""
        for _ in range(10):
            temporal_store.offer(make_obj(1.0, t_arrival=0.0), 0.0)
        now = days(20)
        victim = next(iter(temporal_store.iter_residents()))
        short = AdmissionPlan(admit=True, victims=(victim,), reason="preempt")
        before = self._state(temporal_store)
        with pytest.raises(CapacityError, match="infeasible plan"):
            temporal_store.offer(make_obj(2.0, t_arrival=now), now, plan=short)
        with pytest.raises(UnknownObjectError):  # the same victim named twice
            temporal_store.offer(
                make_obj(2.0, t_arrival=now), now,
                plan=AdmissionPlan(admit=True, victims=(victim, victim), reason="preempt"),
            )
        assert self._state(temporal_store) == before
        assert victim.object_id in temporal_store
        assert temporal_store.importance_index.check(now)
        assert temporal_store.bytes_by_creator() == _creator_scan(temporal_store)

    def test_capacity_never_exceeded(self, temporal_store):
        now = 0.0
        for i in range(50):
            temporal_store.offer(make_obj(0.7, t_arrival=now), now)
            assert temporal_store.used_bytes <= temporal_store.capacity_bytes
            now += days(1)


class TestEvictionRecords:
    def test_preemption_record_fields(self, temporal_store):
        victim = make_obj(10.0, t_arrival=0.0)
        temporal_store.offer(victim, 0.0)
        now = days(22.5)  # importance exactly 0.5
        winner = make_obj(1.0, t_arrival=now)
        result = temporal_store.offer(winner, now)
        assert result.admitted
        record = result.evictions[0]
        assert record.obj is victim
        assert record.t_evicted == now
        assert record.importance_at_eviction == pytest.approx(0.5)
        assert record.achieved_lifetime == pytest.approx(days(22.5))
        assert record.requested_lifetime == days(30)
        assert record.reason == "preempted"
        assert record.preempted_by == winner.object_id
        assert record.unit == temporal_store.name

    def test_history_retention_toggle(self):
        store = StorageUnit(
            gib(2), TemporalImportancePolicy(), keep_history=False
        )
        store.offer(make_obj(1.0), 0.0)
        store.remove(next(store.iter_residents()).object_id, days(1))
        assert store.evictions == []  # history off
        assert store.evicted_count == 1  # counters always on

    def test_callbacks_fire(self, temporal_store):
        evicted, rejected = [], []
        temporal_store.on_eviction = evicted.append
        temporal_store.on_rejection = rejected.append
        temporal_store.offer(make_obj(10.0), 0.0)
        temporal_store.offer(make_obj(1.0), 0.0)  # rejected: full at same importance
        assert len(rejected) == 1
        temporal_store.offer(make_obj(1.0, t_arrival=days(20)), days(20))
        assert len(evicted) == 1


class TestRemoveAndSweep:
    def test_manual_remove(self, temporal_store):
        obj = make_obj(1.0)
        temporal_store.offer(obj, 0.0)
        record = temporal_store.remove(obj.object_id, days(3))
        assert record.reason == "manual"
        assert temporal_store.used_bytes == 0
        assert obj.object_id not in temporal_store

    def test_remove_unknown_raises(self, temporal_store):
        with pytest.raises(UnknownObjectError):
            temporal_store.remove("ghost", 0.0)

    def test_reclaim_expired_sweeps_only_expired(self, temporal_store):
        short = make_obj(
            1.0, lifetime=FixedLifetimeImportance(p=1.0, expire_after=days(1))
        )
        long = make_obj(
            1.0, lifetime=FixedLifetimeImportance(p=1.0, expire_after=days(100))
        )
        temporal_store.offer(short, 0.0)
        temporal_store.offer(long, 0.0)
        records = temporal_store.reclaim_expired(days(2))
        assert [r.obj.object_id for r in records] == [short.object_id]
        assert long.object_id in temporal_store

    def test_expired_objects_squat_without_pressure(self, temporal_store):
        obj = make_obj(1.0)
        temporal_store.offer(obj, 0.0)
        # Way past expiry, but nothing arrived: the object is still there.
        assert obj.object_id in temporal_store
        assert temporal_store.get(obj.object_id).is_expired_at(days(100))


class TestStats:
    def test_snapshot_reflects_counters_and_occupancy(self, temporal_store):
        temporal_store.offer(make_obj(1.0), 0.0)
        for _ in range(9):
            temporal_store.offer(make_obj(1.0), 0.0)
        temporal_store.offer(make_obj(1.0), 0.0)  # full at same importance
        stats = temporal_store.stats()
        assert stats.unit == temporal_store.name
        assert stats.capacity_bytes == temporal_store.capacity_bytes
        assert stats.used_bytes == gib(10)
        assert stats.resident_count == 10
        assert stats.accepted_count == 10
        assert stats.rejected_count == 1
        assert stats.bytes_accepted == gib(10)
        assert stats.bytes_rejected == gib(1)
        assert stats.offered_count == 11
        assert stats.free_bytes == 0
        assert stats.utilization == 1.0

    def test_snapshot_is_frozen_and_detached(self, temporal_store):
        temporal_store.offer(make_obj(1.0), 0.0)
        stats = temporal_store.stats()
        with pytest.raises(AttributeError):
            stats.used_bytes = 0
        temporal_store.offer(make_obj(1.0), 0.0)
        assert stats.used_bytes == gib(1)  # old snapshot unchanged
        assert temporal_store.stats().used_bytes == gib(2)

    def test_snapshot_counts_evictions(self, temporal_store):
        temporal_store.offer(make_obj(10.0, t_arrival=0.0), 0.0)
        now = days(22.5)
        temporal_store.offer(make_obj(1.0, t_arrival=now), now)
        stats = temporal_store.stats()
        assert stats.evicted_count == 1
        assert stats.bytes_evicted == gib(10)
        assert stats.accepted_count == stats.resident_count + stats.evicted_count


class TestQueries:
    def test_get_unknown_raises(self, temporal_store):
        with pytest.raises(UnknownObjectError):
            temporal_store.get("ghost")

    def test_touch_updates_last_access(self, temporal_store):
        obj = make_obj(1.0)
        temporal_store.offer(obj, 0.0)
        assert temporal_store.last_access(obj.object_id) == 0.0
        temporal_store.touch(obj.object_id, days(2))
        assert temporal_store.last_access(obj.object_id) == days(2)

    def test_touch_unknown_raises(self, temporal_store):
        with pytest.raises(UnknownObjectError):
            temporal_store.touch("ghost", 0.0)

    def test_iter_residents_is_snapshot(self, temporal_store):
        temporal_store.offer(make_obj(1.0), 0.0)
        iterator = temporal_store.iter_residents()
        temporal_store.offer(make_obj(1.0), 0.0)
        assert len(list(iterator)) == 1  # snapshot taken at call time

    def test_peek_admission_does_not_mutate(self, temporal_store):
        temporal_store.offer(make_obj(10.0), 0.0)
        plan = temporal_store.peek_admission(make_obj(1.0, t_arrival=days(20)), days(20))
        assert plan.admit and plan.victims
        assert temporal_store.resident_count == 1  # still there

    def test_repr_mentions_policy_and_usage(self, temporal_store):
        temporal_store.offer(make_obj(1.0), 0.0)
        text = repr(temporal_store)
        assert "temporal-importance" in text
        assert "residents=1" in text


class TestNanClock:
    """A NaN ``now`` never compares, so a unit refuses it before it lands."""

    def test_nan_now_is_refused_and_the_index_stays_sound(self):
        store = StorageUnit(1000, TemporalImportancePolicy())
        obj = StoredObject(
            size=600, t_arrival=0.0, lifetime=FixedLifetimeImportance(0.5, 10), object_id="a"
        )
        store.offer(obj, 0.0)
        small = StoredObject(
            size=100, t_arrival=0.0, lifetime=FixedLifetimeImportance(0.5, 10), object_id="b"
        )
        nan = float("nan")
        assert importance_density(store, 20.0) == 0.0
        with pytest.raises(SimulationError):
            importance_density(store, nan)
        for call in (
            lambda: store.offer(small, nan),
            lambda: store.peek_admission(small, nan),
            lambda: store.touch("a", nan),
            lambda: store.remove("a", nan),
            lambda: store.reclaim_expired(nan),
            lambda: store.importance_index.advance(nan),
        ):
            with pytest.raises(SimulationError):
                call()
        # The clock regressed from 20 to 5: the index rebuilt, not poisoned.
        assert importance_density(store, 5.0) == 0.3
        assert store.last_access("a") == 0.0 and store.accepted_count == 1
        assert store.importance_index.check(5.0)

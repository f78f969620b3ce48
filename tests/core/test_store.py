"""Unit tests for the storage unit (capacity, admission, records)."""

import pytest

from repro.core.density import importance_density
from repro.core.importance import FixedLifetimeImportance
from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.policy import AdmissionPlan
from repro.core.store import StorageUnit
from repro.errors import AnnotationError, CapacityError, SimulationError, UnknownObjectError
from repro.units import days, gib
from tests.conftest import make_obj
from tests.oracles.scaled import Scaled


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
        assert temporal_store.history.rejections[0].reason == "full-for-importance"

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
            len(store.history.arrivals),
            len(store.history.evictions),
            len(store.history.rejections),
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
        assert record.object_id == victim.object_id
        assert (record.creator, record.size, record.t_arrival, record.lifetime) == (
            victim.creator, victim.size, victim.t_arrival, victim.lifetime
        )
        assert record.t_evicted == now
        assert record.importance_at_eviction == pytest.approx(0.5)
        assert record.achieved_lifetime == pytest.approx(days(22.5))
        assert record.requested_lifetime == days(30)
        assert record.reason == "preempted"
        assert record.preempted_by == winner.object_id
        assert record.unit == temporal_store.name

    def test_history_retention_toggle(self):
        store = StorageUnit(gib(2), TemporalImportancePolicy())
        store.offer(make_obj(1.0), 0.0)
        store.remove(next(store.iter_residents()).object_id, days(1))
        assert store.history is None  # history off by default
        assert store.evicted_count == 1  # counters always on

    def test_callbacks_fire(self, temporal_store):
        evicted = []
        temporal_store.on_eviction = evicted.append
        temporal_store.offer(make_obj(10.0), 0.0)
        temporal_store.offer(make_obj(1.0), 0.0)  # rejected: full at same importance
        assert len(temporal_store.history.rejections) == 1
        temporal_store.offer(make_obj(1.0, t_arrival=days(20)), days(20))
        assert evicted == list(temporal_store.history.evictions) and len(evicted) == 1


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
        assert [r.object_id for r in records] == [short.object_id]
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
        assert importance_density(store, 5.0) == 0.3
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
        # The index was not poisoned: it still advances to the expiry.
        assert importance_density(store, 20.0) == 0.0
        assert store.last_access("a") == 0.0 and store.accepted_count == 1
        assert store.importance_index.check(20.0)


def _unit_snapshot(store):
    return (
        store.stats(),
        [(obj.object_id, store.last_access(obj.object_id)) for obj in store.iter_residents()],
        store.bytes_by_creator(),
        store._now,
    )


#: Every entry point that takes ``now``: ``(store, obj, resident id, now)``.
ENTRY_POINTS = {
    "offer": lambda store, obj, oid, now: store.offer(obj, now),
    "peek_admission": lambda store, obj, oid, now: store.peek_admission(obj, now),
    "probe": lambda store, obj, oid, now: store.policy.probe(store, obj, now, 1.0),
    "touch": lambda store, obj, oid, now: store.touch(oid, now),
    "remove": lambda store, obj, oid, now: store.remove(oid, now),
    "reclaim_expired": lambda store, obj, oid, now: store.reclaim_expired(now),
    "importance_density": lambda store, obj, oid, now: importance_density(store, now),
}
DECISIONS = ("offer", "peek_admission", "probe")


class TestUnitClock:
    """The unit clock: never backwards, always on whole minutes, arrivals
    on the grid and no later than their offer.  Each bad input raises
    :class:`SimulationError` with the unit unchanged."""

    @staticmethod
    def _unit(policy=None):
        store = StorageUnit(1000, policy or TemporalImportancePolicy(), name="u")
        store.offer(StoredObject(size=900, t_arrival=0.0, object_id="a",
                                 lifetime=FixedLifetimeImportance(0.9, 100)), 10.0)
        importance_density(store, 20.0)  # the clock is at 20
        return store

    def _refused(self, entry, now, *, t_arrival=20.0, policy=None):
        store = self._unit(policy)
        obj = StoredObject(size=500, t_arrival=t_arrival, object_id="b",
                           lifetime=FixedLifetimeImportance(1.0, 100))
        before = _unit_snapshot(store)
        with pytest.raises(SimulationError):
            ENTRY_POINTS[entry](store, obj, "a", now)
        assert _unit_snapshot(store) == before
        assert store.importance_index.check(20.0)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_nan_is_refused(self, entry):
        self._refused(entry, float("nan"), t_arrival=0.0)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_backwards_is_refused(self, entry):
        self._refused(entry, 19.0, t_arrival=0.0)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_infinity_is_refused(self, entry):
        self._refused(entry, float("inf"), t_arrival=0.0)

    def test_a_refused_infinite_read_leaves_the_unit_usable(self):
        store = self._unit()
        with pytest.raises(SimulationError):
            importance_density(store, float("inf"))
        obj = StoredObject(size=50, t_arrival=21.0, lifetime=FixedLifetimeImportance(1.0, 9))
        assert store.offer(obj, 21.0).admitted
        fresh = StorageUnit(1000, TemporalImportancePolicy())
        with pytest.raises(SimulationError):
            importance_density(fresh, float("-inf"))
        assert fresh._now == -float("inf")

    @pytest.mark.parametrize("entry", DECISIONS)
    @pytest.mark.parametrize("now", [20.5, 2.0**51 + 2.0, float("inf")])
    def test_a_decision_off_the_minute_grid_is_refused(self, entry, now):
        self._refused(entry, now)

    def test_the_base_probe_keeps_the_clock_too(self):
        from repro.core.policies import LRUPolicy

        for now in (19.0, 20.5):
            self._refused("probe", now, policy=LRUPolicy())

    def test_an_off_grid_arrival_is_refused(self):
        self._refused("offer", 21.0, t_arrival=20.5)

    def test_an_arrival_after_its_offer_is_refused(self):
        self._refused("offer", 20.0, t_arrival=21.0)

    def test_a_user_annotation_off_the_grid_is_refused(self):
        # A built-in checks its durations when built; any other annotation
        # is checked once, when the unit files it, before anything moves.
        class HalfMinute(FixedLifetimeImportance):
            @property
            def stable_until(self):
                return self.expire_after - 0.5

        store = self._unit()
        before = _unit_snapshot(store)
        odd = StoredObject(size=50, t_arrival=21.0, lifetime=HalfMinute(1.0, 100))
        with pytest.raises(AnnotationError, match="HalfMinute.stable_until"):
            store.offer(odd, 21.0)
        assert _unit_snapshot(store) == before
        wrapped = StoredObject(size=50, t_arrival=21.0, lifetime=Scaled(odd.lifetime, 1.0))
        with pytest.raises(AnnotationError, match="Scaled.stable_until"):
            store.offer(wrapped, 21.0)
        fine = Scaled(FixedLifetimeImportance(1.0, 100), 0.5)
        fine = StoredObject(size=50, t_arrival=21.0, lifetime=fine)
        assert store.offer(fine, 21.0).admitted

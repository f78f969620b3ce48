"""Tests for the shared preemptive-admission planner (paper semantics)."""

import pytest

from repro.core.admission import plan_preemptive_admission
from repro.core.importance import (
    ConstantImportance,
    DiracImportance,
    TwoStepImportance,
)
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.units import days, gib
from tests.conftest import make_obj
from tests.oracles import importance_order


@pytest.fixture
def store():
    return StorageUnit(gib(4), TemporalImportancePolicy(), name="adm")


class TestVictimOrdering:
    def test_orders_by_current_importance(self, store):
        fresh = make_obj(1.0, t_arrival=days(10))   # importance 1.0 at day 10
        waned = make_obj(1.0, t_arrival=0.0)        # starts waning at day 15
        store.offer(waned, 0.0)
        store.offer(fresh, days(10))
        ordered = importance_order(store.iter_residents(), days(20))
        assert [o.object_id for o in ordered] == [waned.object_id, fresh.object_id]

    def test_ties_break_by_remaining_lifetime(self, store):
        # Same current importance (both in persistence window), different
        # remaining lifetimes.
        short = make_obj(
            1.0, lifetime=TwoStepImportance(p=1.0, t_persist=days(5), t_wane=days(5))
        )
        long = make_obj(
            1.0, lifetime=TwoStepImportance(p=1.0, t_persist=days(50), t_wane=days(5))
        )
        store.offer(long, 0.0)
        store.offer(short, 0.0)
        ordered = importance_order(store.iter_residents(), days(1))
        assert ordered[0].object_id == short.object_id

    def test_expired_objects_sort_first(self, store):
        expired = make_obj(1.0, t_arrival=0.0)
        live = make_obj(1.0, t_arrival=days(35))
        store.offer(expired, 0.0)
        store.offer(live, days(35))
        ordered = importance_order(store.iter_residents(), days(35))
        assert ordered[0].object_id == expired.object_id


class TestAdmissionRule:
    def test_free_space_admits_without_victims(self, store):
        plan = plan_preemptive_admission(store, make_obj(1.0), 0.0)
        assert plan.admit and not plan.victims and plan.reason == "free-space"

    def test_equal_importance_is_full(self, store):
        for _ in range(4):
            store.offer(make_obj(1.0), 0.0)
        plan = plan_preemptive_admission(store, make_obj(1.0), 0.0)
        assert not plan.admit
        assert plan.reason == "full-for-importance"
        assert plan.blocking_importance == 1.0

    def test_strictly_higher_importance_preempts(self, store):
        half = TwoStepImportance(p=0.5, t_persist=days(15), t_wane=days(15))
        for _ in range(4):
            store.offer(make_obj(1.0, lifetime=half), 0.0)
        plan = plan_preemptive_admission(store, make_obj(1.0), 0.0)
        assert plan.admit
        assert plan.highest_preempted == 0.5
        assert plan.reason == "preempt"

    def test_lower_importance_cannot_preempt(self, store):
        for _ in range(4):
            store.offer(make_obj(1.0), 0.0)
        weak = make_obj(
            1.0, lifetime=TwoStepImportance(p=0.3, t_persist=days(1), t_wane=0.0)
        )
        plan = plan_preemptive_admission(store, weak, 0.0)
        assert not plan.admit

    def test_expired_residents_are_free_prey(self, store):
        for _ in range(4):
            store.offer(make_obj(1.0, t_arrival=0.0), 0.0)
        now = days(31)  # all residents fully expired
        weak = make_obj(1.0, t_arrival=now, lifetime=DiracImportance())
        plan = plan_preemptive_admission(store, weak, now)
        # Even an importance-0 object may displace importance-0 residents.
        assert plan.admit
        assert plan.reason == "expired-only"
        assert plan.highest_preempted == 0.0

    def test_zero_importance_cannot_preempt_live_objects(self, store):
        for _ in range(4):
            store.offer(make_obj(1.0), 0.0)
        cache_obj = make_obj(1.0, lifetime=DiracImportance())
        plan = plan_preemptive_admission(store, cache_obj, days(1))
        assert not plan.admit

    def test_victim_set_is_minimal_prefix(self, store):
        # Two waned objects at different levels; the incoming 1 GiB object
        # only needs one victim — the least important.
        early = make_obj(1.0, t_arrival=0.0)
        later = make_obj(1.0, t_arrival=days(5))
        store.offer(early, 0.0)
        store.offer(later, days(5))
        store.offer(make_obj(2.0, t_arrival=days(16)), days(16))
        now = days(20)
        plan = plan_preemptive_admission(store, make_obj(1.0, t_arrival=now), now)
        assert plan.admit
        assert [v.object_id for v in plan.victims] == [early.object_id]

    def test_highest_preempted_not_size_weighted(self, store):
        # A tiny waned object and a large more-waned object: both become
        # victims for a 2 GiB arrival, and the score is the *highest*
        # victim importance regardless of the tiny object's size.
        tiny_fresher = make_obj(0.25, t_arrival=days(2))
        big_older = make_obj(2.0, t_arrival=0.0)
        store.offer(big_older, 0.0)
        store.offer(tiny_fresher, days(2))
        store.offer(make_obj(1.75, t_arrival=days(10)), days(10))
        now = days(20)
        incoming = make_obj(2.1, t_arrival=now)
        plan = plan_preemptive_admission(store, incoming, now)
        assert plan.admit
        assert tiny_fresher in plan.victims and big_older in plan.victims
        assert plan.highest_preempted == pytest.approx(
            tiny_fresher.importance_at(now)
        )

    def test_lax_mode_allows_equal_importance(self, store):
        for _ in range(4):
            store.offer(make_obj(1.0), 0.0)
        plan = plan_preemptive_admission(store, make_obj(1.0), 0.0, strict=False)
        assert plan.admit

    def test_unpreemptible_constant_objects(self, store):
        for _ in range(4):
            store.offer(make_obj(1.0, lifetime=ConstantImportance(p=1.0)), 0.0)
        # Importance-1 residents can never be preempted (strict comparison),
        # so the store is permanently full even for importance-1 arrivals.
        plan = plan_preemptive_admission(
            store, make_obj(1.0, t_arrival=days(10_000)), days(10_000)
        )
        assert not plan.admit

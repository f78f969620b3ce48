"""Unit tests for the policy family (the paper's three + baselines)."""

from repro.core.importance import DiracImportance, FixedLifetimeImportance
from repro.core.policies import (
    FixedLifetimePolicy,
    GreedySizePolicy,
    LRUPolicy,
    PalimpsestPolicy,
    TemporalImportancePolicy,
)
from repro.core.store import StorageUnit
from repro.units import days, gib
from tests.conftest import make_obj


def fixed30():
    return FixedLifetimeImportance(p=1.0, expire_after=days(30))


class TestTemporalImportancePolicy:
    def test_name_reflects_strictness(self):
        assert TemporalImportancePolicy().name == "temporal-importance"
        assert TemporalImportancePolicy(strict=False).name == "temporal-importance-lax"

    def test_full_for_lower_importance_only(self):
        store = StorageUnit(gib(2), TemporalImportancePolicy())
        store.offer(make_obj(2.0), 0.0)
        now = days(20)  # resident waned to ~0.67
        weak = make_obj(1.0, t_arrival=now, lifetime=DiracImportance())
        strong = make_obj(1.0, t_arrival=now)
        assert not store.offer(weak, now).admitted
        assert store.offer(strong, now).admitted


class TestFixedLifetimePolicy:
    def test_guarantees_full_lifetime(self):
        store = StorageUnit(gib(2), FixedLifetimePolicy())
        resident = make_obj(2.0, lifetime=fixed30())
        store.offer(resident, 0.0)
        # Even at day 29.9 the resident is untouchable.
        result = store.offer(
            make_obj(1.0, t_arrival=days(29.9), lifetime=fixed30()), days(29.9)
        )
        assert not result.admitted
        assert result.plan.reason == "full-live-objects"

    def test_reclaims_expired_residents(self):
        store = StorageUnit(gib(2), FixedLifetimePolicy())
        resident = make_obj(2.0, lifetime=fixed30())
        store.offer(resident, 0.0)
        result = store.offer(
            make_obj(1.0, t_arrival=days(31), lifetime=fixed30()), days(31)
        )
        assert result.admitted
        assert result.plan.reason == "expired-only"
        assert [e.object_id for e in result.evictions] == [resident.object_id]

    def test_expired_victims_oldest_expiry_first(self):
        store = StorageUnit(gib(3), FixedLifetimePolicy())
        first = make_obj(1.0, t_arrival=0.0, lifetime=fixed30())
        second = make_obj(1.0, t_arrival=days(5), lifetime=fixed30())
        store.offer(first, 0.0)
        store.offer(second, days(5))
        store.offer(make_obj(1.0, t_arrival=days(10), lifetime=fixed30()), days(10))
        result = store.offer(
            make_obj(1.0, t_arrival=days(40), lifetime=fixed30()), days(40)
        )
        assert result.admitted
        assert [e.object_id for e in result.evictions] == [first.object_id]

    def test_blocking_importance_reports_lowest_live(self):
        store = StorageUnit(gib(1), FixedLifetimePolicy())
        store.offer(make_obj(1.0, lifetime=fixed30()), 0.0)
        result = store.offer(make_obj(1.0, lifetime=fixed30()), days(1))
        assert not result.admitted
        assert result.rejection.blocking_importance == 1.0

    def test_oversized_object(self):
        store = StorageUnit(gib(1), FixedLifetimePolicy())
        result = store.offer(make_obj(2.0, lifetime=fixed30()), 0.0)
        assert not result.admitted
        assert result.plan.reason == "object-too-large"


class TestPalimpsestPolicy:
    def test_never_rejects_normal_objects(self):
        store = StorageUnit(gib(2), PalimpsestPolicy())
        for day in range(20):
            result = store.offer(
                make_obj(1.0, t_arrival=days(day), lifetime=DiracImportance()),
                days(day),
            )
            assert result.admitted
        assert store.stats().rejected_count == 0

    def test_evicts_oldest_first(self):
        store = StorageUnit(gib(2), PalimpsestPolicy())
        first = make_obj(1.0, t_arrival=0.0, lifetime=DiracImportance())
        second = make_obj(1.0, t_arrival=1.0, lifetime=DiracImportance())
        store.offer(first, 0.0)
        store.offer(second, 1.0)
        result = store.offer(
            make_obj(1.0, t_arrival=2.0, lifetime=DiracImportance()), 2.0
        )
        assert [e.object_id for e in result.evictions] == [first.object_id]

    def test_ignores_importance_entirely(self):
        # The paper's Figure 10 pathology: a FIFO sweep reclaims the most
        # important (oldest...) — here, the oldest object is the *fresher*
        # in importance terms because of a longer persistence window.
        store = StorageUnit(gib(2), PalimpsestPolicy())
        important = make_obj(1.0, t_arrival=0.0)  # two-step, still at 1.0 on day 1
        store.offer(important, 0.0)
        store.offer(make_obj(1.0, t_arrival=days(1)), days(1))
        result = store.offer(make_obj(1.0, t_arrival=days(2)), days(2))
        victim = result.evictions[0]
        assert victim.object_id == important.object_id
        assert victim.importance_at_eviction == 1.0  # projected importance

    def test_names(self):
        assert PalimpsestPolicy().name == "palimpsest"


class TestLRUPolicy:
    def test_touch_protects_recently_used(self):
        store = StorageUnit(gib(2), LRUPolicy())
        cold = make_obj(1.0, t_arrival=0.0)
        warm = make_obj(1.0, t_arrival=1.0)
        store.offer(cold, 0.0)
        store.offer(warm, 1.0)
        store.touch(cold.object_id, 10.0)  # cold is now the most recent
        result = store.offer(make_obj(1.0, t_arrival=20.0), 20.0)
        assert [e.object_id for e in result.evictions] == [warm.object_id]

    def test_never_rejects(self):
        store = StorageUnit(gib(1), LRUPolicy())
        for i in range(5):
            assert store.offer(make_obj(1.0, t_arrival=float(i)), float(i)).admitted


class TestGreedySizePolicy:
    def test_prefers_larger_victims_within_bucket(self):
        store = StorageUnit(gib(4), GreedySizePolicy())
        small = make_obj(1.0, t_arrival=0.0)
        large = make_obj(3.0, t_arrival=0.0)
        store.offer(small, 0.0)
        store.offer(large, 0.0)
        now = days(20)  # both waned equally
        result = store.offer(make_obj(2.0, t_arrival=now), now)
        assert result.admitted
        assert [e.object_id for e in result.evictions] == [large.object_id]

    def test_admits_on_weighted_mean_not_max(self):
        store = StorageUnit(gib(4), GreedySizePolicy())
        # A tiny fresher object (high importance) plus a big waned one:
        # the max importance would block a mid-importance arrival, but the
        # size-weighted mean admits it.
        big_waned = make_obj(3.5, t_arrival=0.0)
        tiny_fresh = make_obj(0.5, t_arrival=days(14))
        store.offer(big_waned, 0.0)
        store.offer(tiny_fresh, days(14))
        now = days(25)
        # big_waned importance: (30-25)/15 = 1/3; tiny (30-11... age 11) = 1.0
        incoming = make_obj(
            3.8,
            t_arrival=now,
            lifetime=make_obj(1.0).lifetime,
        )
        plan = store.peek_admission(incoming, now)
        weighted = (3.5 * (1 / 3) + 0.5 * 1.0) / 4.0
        assert plan.admit
        assert plan.blocking_importance is None
        assert weighted < 1.0  # sanity of the scenario

    def test_full_when_weighted_mean_too_high(self):
        store = StorageUnit(gib(2), GreedySizePolicy())
        store.offer(make_obj(2.0, t_arrival=0.0), 0.0)
        weak = make_obj(
            2.0,
            t_arrival=days(20),
            lifetime=DiracImportance(),
        )
        plan = store.peek_admission(weak, days(20))
        assert not plan.admit
        assert plan.reason == "full-for-importance"

"""Tests for the annotation advisor."""

import pytest

from repro.core.advisor import AnnotationAdvisor
from repro.core.importance import ConstantImportance
from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.errors import ReproError
from repro.units import days, gib
from tests.conftest import make_obj


def _admits(store, advice, now):
    """Whether a 1 GiB object under the advised annotation is admitted now."""
    probe = StoredObject(size=gib(1), t_arrival=now, lifetime=advice.annotation)
    return store.peek_admission(probe, now).admit


@pytest.fixture
def store():
    return StorageUnit(gib(10), TemporalImportancePolicy(), name="adv")


class TestAdvise:
    def test_empty_store_recommends_minimal_importance(self, store):
        advisor = AnnotationAdvisor(store, target_margin=0.2)
        advice = advisor.advise(gib(1), persist_days=10, wane_days=10, now=0.0)
        assert advice.achievable
        assert advice.threshold == 0.0
        assert advice.annotation.p == pytest.approx(0.2)
        assert advice.annotation.t_persist == days(10)
        assert advice.annotation.t_wane == days(10)
        assert _admits(store, advice, 0.0)

    def test_waned_store_recommends_above_threshold(self, store):
        for _ in range(10):
            store.offer(make_obj(1.0), 0.0)
        now = days(22.5)  # residents at importance 0.5
        advisor = AnnotationAdvisor(store, target_margin=0.2)
        advice = advisor.advise(gib(1), 10, 10, now)
        assert advice.achievable
        assert 0.5 < advice.threshold <= 0.52
        assert advice.annotation.p == pytest.approx(advice.threshold + 0.2)
        assert _admits(store, advice, now)

    def test_margin_truncates_at_ceiling(self, store):
        for _ in range(10):
            store.offer(make_obj(1.0), 0.0)
        now = days(28.5)  # residents at importance 0.1
        advisor = AnnotationAdvisor(store, target_margin=0.95)
        advice = advisor.advise(gib(1), 10, 10, now)
        assert advice.achievable
        assert advice.annotation.p == 1.0
        assert advice.margin < 0.95
        assert "truncated" in advice.detail

    def test_unachievable_when_full_of_persistent_data(self, store):
        for _ in range(10):
            store.offer(make_obj(1.0, lifetime=ConstantImportance()), 0.0)
        advisor = AnnotationAdvisor(store)
        advice = advisor.advise(gib(1), 10, 10, days(100))
        assert not advice.achievable
        assert advice.annotation is None

    def test_input_validation(self, store):
        advisor = AnnotationAdvisor(store)
        with pytest.raises(ReproError):
            advisor.advise(0, 1, 1, 0.0)
        with pytest.raises(ReproError):
            advisor.advise(gib(1), -1, 1, 0.0)
        with pytest.raises(ReproError):
            AnnotationAdvisor(store, target_margin=0.0)

    def test_density_reported_alongside(self, store):
        store.offer(make_obj(5.0), 0.0)
        advisor = AnnotationAdvisor(store)
        advice = advisor.advise(gib(1), 5, 5, 0.0)
        assert advice.density == pytest.approx(0.5)


class TestAdviceSurvivesPressure:
    def test_recommended_objects_outlive_threshold_objects(self, store):
        """End to end: advice with margin really is safer than storing at
        exactly the threshold."""
        # Build steady pressure.
        now = 0.0
        for i in range(30):
            store.offer(make_obj(1.0, t_arrival=now), now)
            now += days(2)
        advisor = AnnotationAdvisor(store, target_margin=0.2)
        advice = advisor.advise(gib(1), 10, 10, now)
        assert advice.achievable
        obj = make_obj(1.0, t_arrival=now, lifetime=advice.annotation)
        assert store.offer(obj, now).admitted

"""Unit tests for the storage-importance-density metric (Section 4.4)."""

import pytest

from repro.core.density import (
    admission_threshold,
    byte_importance_snapshot,
    importance_density,
)
from repro.core.importance import DiracImportance
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.units import days, gib
from tests.conftest import make_obj


@pytest.fixture
def store():
    return StorageUnit(gib(10), TemporalImportancePolicy(), name="dens")


class TestImportanceDensity:
    def test_empty_store_has_zero_density(self, store):
        assert importance_density(store, 0.0) == 0.0

    def test_full_store_of_fresh_objects_has_density_one(self, store):
        for _ in range(10):
            store.offer(make_obj(1.0), 0.0)
        assert importance_density(store, 0.0) == pytest.approx(1.0)

    def test_density_scales_each_byte_by_importance(self, store):
        store.offer(make_obj(5.0), 0.0)
        # At day 22.5 the object's importance is 0.5; half the disk is
        # occupied at 0.5, so density is 0.25.
        assert importance_density(store, days(22.5)) == pytest.approx(0.25)

    def test_expired_bytes_contribute_zero(self, store):
        store.offer(make_obj(10.0), 0.0)
        assert importance_density(store, days(31)) == 0.0

    def test_density_decreases_monotonically_without_arrivals(self, store):
        store.offer(make_obj(10.0), 0.0)
        samples = [importance_density(store, days(d)) for d in range(0, 35, 5)]
        assert all(a >= b for a, b in zip(samples, samples[1:]))

    def test_density_in_unit_interval_under_churn(self, store):
        now = 0.0
        for i in range(60):
            store.offer(make_obj(0.9, t_arrival=now), now)
            value = importance_density(store, now)
            assert 0.0 <= value <= 1.0
            now += days(1)


class TestSnapshot:
    def test_includes_free_space_as_zero_mass(self, store):
        store.offer(make_obj(4.0), 0.0)
        snap = byte_importance_snapshot(store, 0.0, include_free=True)
        assert snap[0] == (0.0, gib(6))
        assert snap[-1] == (1.0, gib(4))

    def test_exclude_free_space(self, store):
        store.offer(make_obj(4.0), 0.0)
        snap = byte_importance_snapshot(store, 0.0, include_free=False)
        assert snap == [(1.0, gib(4))]

    def test_groups_equal_importances(self, store):
        store.offer(make_obj(2.0), 0.0)
        store.offer(make_obj(3.0), 0.0)
        snap = byte_importance_snapshot(store, 0.0, include_free=False)
        assert snap == [(1.0, gib(5))]

    def test_sorted_ascending(self, store):
        store.offer(make_obj(1.0, t_arrival=0.0), 0.0)          # will wane
        store.offer(make_obj(1.0, t_arrival=days(18)), days(18))  # fresh
        snap = byte_importance_snapshot(store, days(20), include_free=False)
        importances = [imp for imp, _b in snap]
        assert importances == sorted(importances)
        assert len(snap) == 2

    def test_snapshot_total_equals_capacity_with_free(self, store):
        store.offer(make_obj(3.0), 0.0)
        store.offer(make_obj(2.5), 0.0)
        snap = byte_importance_snapshot(store, days(5), include_free=True)
        assert sum(size for _imp, size in snap) == store.capacity_bytes


class TestAdmissionThreshold:
    def test_empty_store_admits_anything(self, store):
        assert admission_threshold(store, gib(1), 0.0) == 0.0

    def test_full_fresh_store_admits_nothing(self, store):
        for _ in range(10):
            store.offer(make_obj(1.0), 0.0)
        assert admission_threshold(store, gib(1), 0.0) == float("inf")

    def test_waned_store_has_intermediate_threshold(self, store):
        for _ in range(10):
            store.offer(make_obj(1.0), 0.0)
        now = days(22.5)  # residents at importance 0.5
        threshold = admission_threshold(store, gib(1), now)
        assert 0.5 < threshold <= 0.52  # must strictly exceed 0.5

    def test_dirac_annotated_store_is_free_for_all(self, store):
        for _ in range(10):
            store.offer(make_obj(1.0, lifetime=DiracImportance()), 0.0)
        assert admission_threshold(store, gib(1), 0.0) == 0.0

    def test_binary_search_issues_at_most_eight_probes(self, store):
        for _ in range(10):
            store.offer(make_obj(1.0), 0.0)
        calls = 0
        original = store.peek_admission

        def counting_peek(obj, now):
            nonlocal calls
            calls += 1
            return original(obj, now)

        store.peek_admission = counting_peek
        admission_threshold(store, gib(1), days(22.5))
        assert calls <= 8

"""Tests for achieved-lifetime statistics."""

import math

import pytest

from repro.analysis.lifetimes import (
    bucket_importance_by_eviction_day,
    bucket_lifetimes_by_eviction_day,
    lifetime_stats,
    satisfaction_ratio,
)
from repro.core.importance import ConstantImportance
from repro.core.store import EvictionRecord
from repro.units import days
from tests.conftest import make_obj


def record(arrival_day, evict_day, importance=0.5, lifetime=None):
    obj = make_obj(1.0, t_arrival=days(arrival_day), lifetime=lifetime)
    return EvictionRecord(
        object_id=obj.object_id,
        creator=obj.creator,
        size=obj.size,
        t_arrival=obj.t_arrival,
        lifetime=obj.lifetime,
        t_evicted=days(evict_day),
        importance_at_eviction=importance,
        reason="preempted",
    )


class TestSatisfactionRatio:
    def test_partial_lifetime(self):
        # Requested 30 days, achieved 15 days.
        assert satisfaction_ratio(record(0, 15)) == pytest.approx(0.5)

    def test_squatting_clips_to_one(self):
        assert satisfaction_ratio(record(0, 45)) == 1.0

    def test_infinite_request_scores_zero(self):
        rec = record(0, 5, lifetime=ConstantImportance())
        assert satisfaction_ratio(rec) == 0.0


class TestLifetimeStats:
    def test_summary_values(self):
        records = [record(0, 10), record(0, 20), record(0, 30)]
        stats = lifetime_stats(records)
        assert stats.n == 3
        assert stats.mean_days == pytest.approx(20.0)
        assert stats.median_days == pytest.approx(20.0)
        assert stats.min_days == 10.0 and stats.max_days == 30.0
        assert stats.mean_requested_days == pytest.approx(30.0)
        assert 0.0 < stats.mean_satisfaction <= 1.0

    def test_infinite_requests_handled(self):
        records = [record(0, 5, lifetime=ConstantImportance())]
        stats = lifetime_stats(records)
        assert math.isinf(stats.mean_requested_days)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            lifetime_stats([])


class TestBucketing:
    def test_lifetime_buckets_group_by_eviction_week(self):
        records = [record(0, 1), record(0, 2), record(0, 9)]
        buckets = bucket_lifetimes_by_eviction_day(records, bucket_days=7)
        assert [b for b, _m, _n in buckets] == [0, 7]
        assert buckets[0][2] == 2 and buckets[1][2] == 1
        assert buckets[0][1] == pytest.approx(1.5)

    def test_importance_buckets(self):
        records = [record(0, 1, importance=0.4), record(0, 2, importance=0.6)]
        buckets = bucket_importance_by_eviction_day(records, bucket_days=7)
        assert buckets == [(0, pytest.approx(0.5), 2)]

    def test_rejects_bad_bucket_size(self):
        with pytest.raises(ValueError):
            bucket_lifetimes_by_eviction_day([], bucket_days=0)
        with pytest.raises(ValueError):
            bucket_importance_by_eviction_day([], bucket_days=-1)

    def test_empty_records_give_empty_series(self):
        assert bucket_lifetimes_by_eviction_day([]) == []
        assert bucket_importance_by_eviction_day([]) == []

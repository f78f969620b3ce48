"""Unit tests for the metrics recorder."""

import pytest

from repro.analysis.lifetimes import bucket_importance_by_eviction_day, lifetime_stats
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.sim.recorder import Recorder
from repro.units import days, gib
from tests.conftest import make_obj


@pytest.fixture
def wired():
    store = StorageUnit(gib(3), TemporalImportancePolicy(), name="rec")
    recorder = Recorder()
    recorder.attach(store)
    return store, recorder


class TestAttachment:
    def test_captures_evictions_and_rejections(self, wired):
        store, recorder = wired
        for _ in range(3):
            store.offer(make_obj(1.0), 0.0)
        store.offer(make_obj(1.0), 0.0)  # rejected
        store.offer(make_obj(1.0, t_arrival=days(20)), days(20))  # preempts
        assert len(recorder.rejections) == 1
        assert len(recorder.evictions) == 1

    def test_attach_is_idempotent(self, wired):
        store, recorder = wired
        recorder.attach(store)
        store.offer(make_obj(1.0), 0.0)
        store.remove(next(store.iter_residents()).object_id, 1.0)
        assert len(recorder.evictions) == 1  # not double-recorded

    def test_chains_existing_callbacks(self):
        store = StorageUnit(gib(1), TemporalImportancePolicy())
        seen = []
        store.on_eviction = seen.append
        recorder = Recorder()
        recorder.attach(store)
        store.offer(make_obj(1.0), 0.0)
        store.remove(next(store.iter_residents()).object_id, 1.0)
        assert len(seen) == 1 and len(recorder.evictions) == 1

    def test_multiple_stores(self):
        recorder = Recorder()
        stores = [
            recorder.attach(StorageUnit(gib(1), TemporalImportancePolicy(), name=f"s{i}"))
            for i in range(3)
        ]
        for store in stores:
            store.offer(make_obj(1.0), 0.0)
        recorder.sample_density(0.0)
        assert len(recorder.density_samples) == 3
        assert {s.capacity_bytes for s in recorder.density_samples} == {gib(1)}


class TestDerivedSeries:
    def test_lifetimes_achieved_filters(self, wired):
        store, recorder = wired
        for _ in range(3):
            store.offer(make_obj(1.0, creator="u"), 0.0)
        store.offer(make_obj(1.0, t_arrival=days(20), creator="u"), days(20))
        store.remove(next(store.iter_residents()).object_id, days(21))
        assert [r.reason for r in recorder.evictions] == ["preempted", "manual"]
        preempted = lifetime_stats(r for r in recorder.evictions if r.reason == "preempted")
        assert (preempted.n, preempted.mean_days) == (1, 20.0)
        assert recorder.evictions[0].t_evicted == days(20)

    def test_rejections_per_day_and_cumulative(self, wired):
        store, recorder = wired
        for _ in range(3):
            store.offer(make_obj(1.0), 0.0)
        store.offer(make_obj(1.0), 0.0)
        store.offer(make_obj(1.0, t_arrival=days(2)), days(2))
        cumulative = recorder.rejections_cumulative()
        assert cumulative == [(0.0, 1), (days(2), 2)]

    def test_importance_at_reclamation(self, wired):
        store, recorder = wired
        for _ in range(3):
            store.offer(make_obj(1.0), 0.0)
        store.offer(make_obj(1.0, t_arrival=days(22.5)), days(22.5))
        ((day, importance, count),) = bucket_importance_by_eviction_day(recorder.evictions)
        assert (day, count) == (21, 1)
        assert importance == pytest.approx(0.5)

    def test_summary_counts(self, wired):
        store, recorder = wired
        recorder.record_arrival(0.0, gib(1), True, "a", "x")
        store.offer(make_obj(1.0), 0.0)
        recorder.sample_density(0.0)
        summary = recorder.summary()
        assert summary["arrivals"] == 1.0
        assert summary["admitted"] == 1.0
        assert summary["mean_density"] == pytest.approx(1.0 / 3.0, rel=1e-6)

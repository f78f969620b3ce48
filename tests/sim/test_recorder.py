"""Unit tests for the metrics recorder."""

import pytest

from repro.analysis.lifetimes import bucket_importance_by_eviction_day, lifetime_stats
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.errors import SimulationError
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

    def test_user_subscriber_fires_beside_recorder(self):
        store = StorageUnit(gib(1), TemporalImportancePolicy())
        seen = []
        store.on_eviction = seen.append
        recorder = Recorder()
        recorder.attach(store)
        assert store.on_eviction == seen.append
        store.offer(make_obj(1.0), 0.0)
        store.remove(next(store.iter_residents()).object_id, 1.0)
        assert seen == list(recorder.evictions) and len(seen) == 1

    def test_the_unit_logs_every_verdict_into_the_recorder(self, wired):
        store, recorder = wired
        assert store.history is recorder
        objs = [make_obj(1.0) for _ in range(4)]
        for obj in objs:
            store.offer(obj, 0.0)
        assert [(a.object_id, a.admitted, a.unit) for a in recorder.arrivals] == [
            (obj.object_id, i < 3, "rec") for i, obj in enumerate(objs)
        ]
        assert recorder.summary()["rejected"] == 1.0 == len(recorder.rejections)

    def test_a_unit_with_history_of_its_own(self):
        unit = StorageUnit(gib(1), TemporalImportancePolicy(), keep_history=True)
        recorder = Recorder()
        recorder.attach(unit)  # an empty history of its own gives way
        assert unit.history is recorder
        kept = StorageUnit(gib(1), TemporalImportancePolicy(), keep_history=True)
        kept.offer(make_obj(1.0), 0.0)
        own = kept.history
        with pytest.raises(SimulationError, match="elsewhere"):
            recorder.attach(kept)  # its records are neither dropped nor split
        assert kept.history is own and len(own.arrivals) == 1
        assert kept not in recorder.units

    def test_a_unit_logs_into_one_recorder(self, wired):
        store, recorder = wired
        with pytest.raises(SimulationError, match="elsewhere"):
            Recorder().attach(store)
        assert store.history is recorder

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
        store.offer(make_obj(1.0), 0.0)
        recorder.sample_density(0.0)
        summary = recorder.summary()
        assert summary["arrivals"] == 1.0
        assert summary["admitted"] == 1.0
        assert summary["rejected"] == 0.0
        assert summary["mean_density"] == pytest.approx(1.0 / 3.0, rel=1e-6)

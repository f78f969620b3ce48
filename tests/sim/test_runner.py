"""Unit tests for scenario orchestration."""

import pytest

from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.recorder import Recorder
from repro.sim.runner import run_single_store
from repro.units import days, gib
from tests.conftest import make_obj


class TestFeedArrivals:
    def test_streams_lazily_in_order(self):
        store = StorageUnit(gib(100), TemporalImportancePolicy())
        engine = SimulationEngine()
        recorder = Recorder()
        recorder.attach(store)
        drawn = []
        arrivals = (drawn.append(i) or make_obj(1.0, t_arrival=days(i)) for i in range(5))
        engine.feed(arrivals, store.offer)
        # Only the first arrival is drawn; the rest follow lazily.
        assert drawn == [0]
        engine.run(days(2))
        assert drawn == [0, 1, 2, 3]
        engine.run(days(10))
        assert store.stats().resident_count == 5
        assert [a.t for a in recorder.arrivals] == [days(i) for i in range(5)]

    def test_rejects_backwards_stream(self):
        store = StorageUnit(gib(100), TemporalImportancePolicy())
        engine = SimulationEngine()
        bad = [make_obj(1.0, t_arrival=days(5)), make_obj(1.0, t_arrival=days(1))]
        engine.feed(iter(bad), store.offer)
        with pytest.raises(SimulationError, match="backwards"):
            engine.run(days(10))

    def test_drops_arrivals_beyond_horizon(self):
        store = StorageUnit(gib(100), TemporalImportancePolicy())
        engine = SimulationEngine()
        arrivals = [make_obj(1.0, t_arrival=days(i)) for i in (1, 2, 50)]
        engine.feed(iter(arrivals), store.offer, horizon_minutes=days(10))
        engine.run(days(10))
        assert store.stats().resident_count == 2

    def test_over_horizon_arrival_does_not_drop_rest_of_stream(self):
        # Regression: one over-horizon arrival used to stop the stream,
        # silently dropping every later in-horizon arrival.
        store = StorageUnit(gib(100), TemporalImportancePolicy())
        engine = SimulationEngine()
        arrivals = [make_obj(1.0, t_arrival=days(t)) for t in (1, 50, 2, 3)]
        engine.feed(iter(arrivals), store.offer, horizon_minutes=days(10))
        engine.run(days(10))
        assert store.stats().resident_count == 3

    def test_backwards_stream_still_raises_after_horizon_skip(self):
        store = StorageUnit(gib(100), TemporalImportancePolicy())
        engine = SimulationEngine()
        arrivals = [make_obj(1.0, t_arrival=days(t)) for t in (5, 50, 1)]
        engine.feed(iter(arrivals), store.offer, horizon_minutes=days(10))
        with pytest.raises(SimulationError, match="backwards"):
            engine.run(days(10))


class TestRunSingleStore:
    def test_end_to_end_with_density_sampling(self):
        store = StorageUnit(gib(10), TemporalImportancePolicy())
        arrivals = [make_obj(1.0, t_arrival=days(i)) for i in range(5)]
        result = run_single_store(
            store, iter(arrivals), days(10), density_interval_minutes=days(1)
        )
        assert result.store is store
        assert result.recorder.admitted_count() == 5
        assert len(result.recorder.density_samples) == 11
        assert result.summary["arrivals"] == 5.0

    def test_a_fractional_density_interval_fails_at_set_up(self):
        # days(0.0001) is 0.144 minutes: refused when the probe registers,
        # before the first arrival is drawn, not at its first read.
        drawn = []

        def arrivals():
            drawn.append(True)
            yield make_obj(1.0)

        store = StorageUnit(gib(10), TemporalImportancePolicy())
        with pytest.raises(SimulationError, match="whole number of minutes"):
            run_single_store(store, arrivals(), days(10), density_interval_minutes=days(0.0001))
        assert drawn == [] and store.stats().offered_count == 0

    def test_density_sampling_can_be_disabled(self):
        store = StorageUnit(gib(10), TemporalImportancePolicy())
        result = run_single_store(
            store, iter([make_obj(1.0)]), days(1), density_interval_minutes=None
        )
        assert result.recorder.density_samples == []

    def test_external_recorder_is_used(self):
        store = StorageUnit(gib(10), TemporalImportancePolicy())
        recorder = Recorder()
        result = run_single_store(
            store, iter([make_obj(1.0)]), days(1), recorder=recorder
        )
        assert result.recorder is recorder
        assert len(recorder.arrivals) == 1

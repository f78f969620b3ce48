"""Unit tests for density probes and the snapshot trigger."""

from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.sim.engine import SimulationEngine
from repro.sim.probes import SnapshotTrigger, density_probe
from repro.sim.recorder import Recorder
from repro.units import days, gib
from tests.conftest import make_obj


class TestDensityProbe:
    def test_samples_periodically(self):
        store = StorageUnit(gib(2), TemporalImportancePolicy())
        store.offer(make_obj(1.0), 0.0)
        engine = SimulationEngine()
        recorder = Recorder()
        recorder.attach(store)
        density_probe(engine, recorder, interval_minutes=days(1))
        engine.run(days(3))
        assert len(recorder.density_samples) == 4  # days 0,1,2,3
        assert all(s.density == 0.5 for s in recorder.density_samples)

    def test_probe_runs_after_same_minute_arrivals(self):
        # An arrival and a probe at the same instant: the probe must see
        # the post-arrival state (PRIORITY_PROBE > PRIORITY_ARRIVAL).
        store = StorageUnit(gib(2), TemporalImportancePolicy())
        engine = SimulationEngine()
        recorder = Recorder()
        recorder.attach(store)
        density_probe(engine, recorder, interval_minutes=days(1), start_minutes=0.0)
        engine.schedule_at(0.0, lambda t: store.offer(make_obj(1.0, t_arrival=t), t))
        engine.run(0.0)
        assert recorder.density_samples[0].density == 0.5


class TestSnapshotTrigger:
    def test_fires_once_inside_band(self):
        store = StorageUnit(gib(2), TemporalImportancePolicy())
        store.offer(make_obj(1.0), 0.0)  # density 0.5 forever (no wane yet)
        trigger = SnapshotTrigger(store, low=0.4, high=0.6)
        trigger(0.0)
        assert trigger.snapshot is not None
        assert trigger.triggered_at == 0.0
        assert trigger.triggered_density == 0.5
        first = trigger.snapshot
        store.offer(make_obj(1.0), 1.0)
        trigger(1.0)  # band matches again but the snapshot is frozen
        assert trigger.snapshot is first

    def test_does_not_fire_outside_band(self):
        store = StorageUnit(gib(2), TemporalImportancePolicy())
        trigger = SnapshotTrigger(store, low=0.4, high=0.6)
        trigger(0.0)  # density 0.0
        assert trigger.snapshot is None

    def test_arm_schedules_on_engine(self):
        store = StorageUnit(gib(2), TemporalImportancePolicy())
        store.offer(make_obj(2.0), 0.0)
        engine = SimulationEngine()
        trigger = SnapshotTrigger(store, low=0.9, high=1.0).arm(
            engine, interval_minutes=days(1)
        )
        engine.run(days(2))
        assert trigger.snapshot is not None
        assert trigger.snapshot[-1][0] == 1.0

    def test_armed_trigger_fires_once_across_periodic_samples(self):
        # Density stays inside the band on every daily sample; only the
        # first entry captures (single-fire semantics).
        store = StorageUnit(gib(2), TemporalImportancePolicy())
        store.offer(make_obj(1.0), 0.0)  # density 0.5 throughout the persist
        engine = SimulationEngine()
        trigger = SnapshotTrigger(store, low=0.4, high=0.6).arm(
            engine, interval_minutes=days(1)
        )
        engine.run(days(5))
        assert trigger.triggered_at == 0.0
        first = trigger.snapshot
        assert first is not None
        engine.run(days(8))  # more in-band samples
        assert trigger.snapshot is first
        assert trigger.triggered_at == 0.0

    def test_armed_trigger_waits_for_band_entry(self):
        # The store starts empty (density 0, outside the band); the probe
        # must fire on the first sample after the band is entered.
        store = StorageUnit(gib(2), TemporalImportancePolicy())
        engine = SimulationEngine()
        trigger = SnapshotTrigger(store, low=0.4, high=0.6).arm(
            engine, interval_minutes=days(1)
        )
        engine.schedule_at(
            days(1.5), lambda t: store.offer(make_obj(1.0, t_arrival=t), t)
        )
        engine.run(days(4))
        assert trigger.triggered_at == days(2)
        assert trigger.triggered_density == 0.5

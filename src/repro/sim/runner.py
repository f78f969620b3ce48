"""Scenario orchestration helpers.

:func:`run_single_store` wires a workload iterator, a storage unit and a
recorder onto the engine and drives the run — the shape shared by the
Section 5.1 and 5.2 experiments.  Cluster (Section 5.3) experiments feed
:meth:`~repro.besteffs.cluster.BesteffsCluster.offer` to their own
engine the same way; either way the engine's scrapes publish the gauges
of the units it was fed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.obj import StoredObject
from repro.core.store import StorageUnit
from repro.obs import STATE as _OBS
from repro.sim.engine import SimulationEngine
from repro.sim.probes import density_probe
from repro.sim.recorder import Recorder
from repro.units import days

__all__ = ["ScenarioResult", "run_single_store"]


@dataclass
class ScenarioResult:
    """Everything an experiment needs after a run."""

    engine: SimulationEngine
    store: StorageUnit
    recorder: Recorder
    horizon_minutes: float

    @property
    def summary(self) -> dict[str, float]:
        return self.recorder.summary()


def run_single_store(
    store: StorageUnit,
    arrivals: Iterable[StoredObject],
    horizon_minutes: float,
    *,
    recorder: Recorder | None = None,
    density_interval_minutes: float | None = days(1),
) -> ScenarioResult:
    """Run one workload against one storage unit for ``horizon_minutes``.

    Returns a :class:`ScenarioResult`; the provided (or newly created)
    recorder is attached to the store and, unless
    ``density_interval_minutes`` is None, sampled periodically.  Each
    arrival is one ``store.offer``, which logs its verdict into the
    recorder; arrivals past the horizon are skipped.
    """
    engine = SimulationEngine()
    if recorder is None:
        recorder = Recorder()
    recorder.attach(store)
    if density_interval_minutes is not None:
        density_probe(engine, recorder, interval_minutes=density_interval_minutes)
    engine.feed(arrivals, store.offer, horizon_minutes=horizon_minutes, units=(store,))
    if _OBS.enabled:
        _OBS.logger.info(
            "runner",
            "run-start",
            sim_time=engine.now,
            store=store.name,
            horizon_minutes=horizon_minutes,
        )
        with _OBS.tracer.span("runner.run_single_store", sim_time=engine.now):
            dispatched = engine.run(horizon_minutes)
        collector = _OBS.timeseries
        stats = store.stats()
        _OBS.logger.info(
            "runner",
            "run-end",
            sim_time=engine.now,
            store=stats.unit,
            dispatched=dispatched,
            accepted=stats.accepted_count,
            rejected=stats.rejected_count,
            evicted=stats.evicted_count,
            timeseries_scrapes=None if collector is None else collector.scrape_count,
        )
    else:
        engine.run(horizon_minutes)
    return ScenarioResult(
        engine=engine, store=store, recorder=recorder, horizon_minutes=horizon_minutes
    )

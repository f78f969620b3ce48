"""Scenario orchestration helpers.

:func:`run_single_store` wires a workload iterator, a storage unit and a
recorder onto the engine and drives the run — the shape shared by the
Section 5.1 and 5.2 experiments.  Distributed (Section 5.3) runs use
:mod:`repro.besteffs.cluster` with the same recorder interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.obj import StoredObject
from repro.core.store import StorageUnit
from repro.errors import SimulationError
from repro.obs import STATE as _OBS
from repro.sim.engine import SimulationEngine
from repro.sim.probes import density_probe
from repro.sim.recorder import Recorder
from repro.units import days

__all__ = ["ScenarioResult", "run_single_store", "feed_arrivals"]


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


def feed_arrivals(
    engine: SimulationEngine,
    store: StorageUnit,
    arrivals: Iterable[StoredObject],
    recorder: Recorder | None = None,
    *,
    horizon_minutes: float = float("inf"),
) -> None:
    """Schedule a time-ordered arrival stream onto the engine.

    Arrivals are scheduled lazily — one event in the heap at a time — so
    multi-year streams do not materialise up front.  The stream must be
    non-decreasing in ``t_arrival``; a violation raises
    :class:`SimulationError` at dispatch time.  Arrivals beyond
    ``horizon_minutes`` are skipped individually — the stream keeps
    draining, so a generator that interleaves over-horizon objects with
    in-horizon ones (e.g. per-creator streams merged without a total
    order past the horizon) still delivers every in-horizon arrival.
    """
    iterator: Iterator[StoredObject] = iter(arrivals)

    def schedule_next(previous_t: float) -> None:
        for obj in iterator:
            if obj.t_arrival < previous_t:
                raise SimulationError(
                    f"arrival stream went backwards: {obj.t_arrival} < {previous_t}"
                )
            if obj.t_arrival > horizon_minutes:
                continue  # skip this arrival, keep draining in-horizon ones
            engine.schedule_at(
                obj.t_arrival,
                lambda now, obj=obj: dispatch(obj, now),
                label="arrival",
            )
            return

    def dispatch(obj: StoredObject, now: float) -> None:
        result = store.offer(obj, now)
        if recorder is not None:
            recorder.record_arrival(
                t=now,
                size=obj.size,
                admitted=result.admitted,
                creator=obj.creator,
                object_id=obj.object_id,
                unit=store.name,
            )
        schedule_next(now)

    schedule_next(0.0)


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
    ``density_interval_minutes`` is None, sampled periodically.
    """
    engine = SimulationEngine()
    if recorder is None:
        recorder = Recorder()
    recorder.attach(store)
    if density_interval_minutes is not None:
        density_probe(engine, recorder, interval_minutes=density_interval_minutes)
    feed_arrivals(engine, store, arrivals, recorder, horizon_minutes=horizon_minutes)
    if _OBS.enabled:
        _OBS.logger.info(
            "runner",
            "run-start",
            sim_time=engine.now,
            store=store.name,
            horizon_minutes=horizon_minutes,
        )
        collector = _OBS.timeseries
        if collector is not None:
            # Sequential sub-runs (one engine per capacity) restart the sim
            # clock at zero; rewind the cadence so the new run still scrapes.
            collector.rewind(engine.now)
        with _OBS.tracer.span("runner.run_single_store", sim_time=engine.now):
            dispatched = engine.run(horizon_minutes)
        if collector is not None:
            # Pin the end-of-horizon state even when the cadence is not due,
            # so final density/occupancy always close the collected series.
            collector.scrape(engine.now)
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

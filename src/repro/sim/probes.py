"""Periodic measurement probes.

Probes are plain callables ticking on the engine (``engine.every``);
this module provides the two the experiments need:

* :func:`density_probe` — sample the storage importance density of every
  attached store at a fixed interval (daily by default).
* :class:`SnapshotTrigger` — watch the density and capture a full
  byte-importance snapshot the first time it enters a target band; this is
  how the Figure 7 CDF (taken "at an instant when importance density was
  0.8369") is reproduced deterministically.

It also holds :func:`scrape`, the one time-series scrape, run by whoever
owns the sim clock: the engine's loop, and the serving worker per batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.core.density import byte_importance_snapshot, importance_density
from repro.core.store import StorageUnit
from repro.obs import STATE as _OBS
from repro.sim.recorder import Recorder
from repro.units import days

if TYPE_CHECKING:
    from repro.sim.engine import SimulationEngine

__all__ = ["density_probe", "scrape", "SnapshotTrigger"]


def scrape(units: Iterable, now: float) -> None:
    """Set each unit's density and occupancy gauges at ``now``; then, with
    a time-series collector installed, scrape it and evaluate the alert
    rules (which dates a rule's first violation).  ``units`` are storage
    units or Besteffs nodes; call it only with :mod:`repro.obs` enabled.
    """
    registry = _OBS.registry
    if units:
        density = registry.gauge(
            "store_importance_density",
            "Instantaneous storage importance density.",
            ("unit",),
        )
        occupancy = registry.gauge(
            "store_occupancy_ratio", "Fraction of raw capacity occupied.", ("unit",)
        )
        for unit in units:
            store = getattr(unit, "store", unit)
            density.set(importance_density(store, now), unit=store.name)
            occupancy.set(store.used_bytes / store.capacity_bytes, unit=store.name)
    collector = _OBS.timeseries
    if collector is None:
        return
    # Scrapes walk every registry series; under a span so trace shards
    # separate scrape cost from event cost.
    with _OBS.tracer.span("engine.scrape", sim_time=now):
        collector.scrape(now, registry)
        if _OBS.alerts is not None:
            _OBS.alerts.evaluate(registry, now=now)


def density_probe(
    engine: SimulationEngine,
    recorder: Recorder,
    *,
    interval_minutes: float = days(1),
    start_minutes: float | None = None,
) -> None:
    """Sample density into ``recorder`` every ``interval_minutes``.

    A sample fires after the arrivals of its minute.
    """
    engine.every(
        interval_minutes,
        recorder.sample_density,
        start_minutes=start_minutes,
        label="density-probe",
    )


@dataclass
class SnapshotTrigger:
    """Capture a byte-importance snapshot when density enters a band.

    Attributes
    ----------
    store:
        The storage unit to watch.
    low / high:
        Inclusive density band that arms the capture.
    snapshot:
        ``[(importance, bytes), ...]`` captured on first trigger, else
        ``None``.
    triggered_at / triggered_density:
        When and at what density the snapshot was taken.
    """

    store: StorageUnit
    low: float
    high: float
    include_free: bool = True
    snapshot: list[tuple[float, int]] | None = field(default=None, init=False)
    triggered_at: float | None = field(default=None, init=False)
    triggered_density: float | None = field(default=None, init=False)

    def __call__(self, now: float) -> None:
        if self.snapshot is not None:
            return
        density = importance_density(self.store, now)
        if self.low <= density <= self.high:
            self.snapshot = byte_importance_snapshot(
                self.store, now, include_free=self.include_free
            )
            self.triggered_at = now
            self.triggered_density = density
            if _OBS.enabled:
                _OBS.logger.info(
                    "probes",
                    "snapshot-trigger",
                    sim_time=now,
                    unit=self.store.name,
                    density=density,
                )

    def arm(
        self,
        engine: SimulationEngine,
        *,
        interval_minutes: float = days(1),
        start_minutes: float | None = None,
    ) -> "SnapshotTrigger":
        """Tick this trigger on the engine, after each minute's arrivals."""
        engine.every(
            interval_minutes, self, start_minutes=start_minutes, label="snapshot-trigger"
        )
        return self

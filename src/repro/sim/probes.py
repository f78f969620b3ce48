"""Periodic measurement probes.

Probes are plain callables scheduled on the engine's periodic schedule;
this module provides the two the experiments need:

* :func:`density_probe` — sample the storage importance density of every
  attached store at a fixed interval (daily by default).
* :class:`SnapshotTrigger` — watch the density and capture a full
  byte-importance snapshot the first time it enters a target band; this is
  how the Figure 7 CDF (taken "at an instant when importance density was
  0.8369") is reproduced deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.density import byte_importance_snapshot, importance_density
from repro.core.store import StorageUnit
from repro.obs import STATE as _OBS
from repro.sim.engine import SimulationEngine
from repro.sim.events import PRIORITY_PROBE
from repro.sim.recorder import Recorder
from repro.units import days

__all__ = ["density_probe", "SnapshotTrigger"]


def density_probe(
    engine: SimulationEngine,
    recorder: Recorder,
    *,
    interval_minutes: float = days(1),
    start_minutes: float | None = None,
    end_minutes: float = float("inf"),
) -> None:
    """Schedule periodic density sampling into ``recorder``."""
    start = engine.now if start_minutes is None else start_minutes
    engine.schedule_periodic(
        start,
        interval_minutes,
        recorder.sample_density,
        end_minutes=end_minutes,
        priority=PRIORITY_PROBE,
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
        """Schedule this trigger on the engine's periodic probe schedule."""
        start = engine.now if start_minutes is None else start_minutes
        engine.schedule_periodic(
            start,
            interval_minutes,
            self,
            priority=PRIORITY_PROBE,
            label="snapshot-trigger",
        )
        return self

"""Metric recording for simulation runs (paper Section 4.4).

The :class:`Recorder` attaches to one or more
:class:`~repro.core.store.StorageUnit` instances and collects the event
streams every experiment consumes:

* **arrivals** — every offered object with its admission verdict (feeds
  the Figure 2 storage-requirement series and the Palimpsest time-constant
  estimator);
* **evictions** — achieved lifetime and importance at reclamation
  (Figures 3, 9, 10);
* **rejections** — "requests turned down because of full storage"
  (Figure 4);
* **density samples** — the instantaneous storage importance density
  time-series (Figures 6, 12), gathered by a periodic probe.

Arrivals, evictions and rejections are :class:`~repro.core.store.HistoryLog`
columns: read-only sequences that rebuild a record when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.density import DensitySample, importance_density
from repro.core.store import EvictionRecord, HistoryLog, RejectionRecord, StorageUnit
from repro.obs import STATE as _OBS

__all__ = ["ArrivalRecord", "Recorder"]


@dataclass(frozen=True, slots=True)
class ArrivalRecord:
    """One object offered to the storage system."""

    t: float
    size: int
    admitted: bool
    creator: str
    object_id: str
    unit: str = ""


class Recorder:
    """Collects arrival/eviction/rejection/density streams across stores.

    A recorder may be attached to any number of stores (a single desktop or
    a whole Besteffs cluster); records carry the unit name so per-node
    analyses remain possible.
    """

    def __init__(self) -> None:
        self.arrivals: HistoryLog[ArrivalRecord] = HistoryLog(ArrivalRecord)
        self.evictions: HistoryLog[EvictionRecord] = HistoryLog(EvictionRecord)
        self.rejections: HistoryLog[RejectionRecord] = HistoryLog(RejectionRecord)
        self.density_samples: list[DensitySample] = []
        self._stores: list[StorageUnit] = []

    # -- wiring --------------------------------------------------------------

    def attach(self, store: StorageUnit) -> StorageUnit:
        """Subscribe to a store's eviction/rejection callbacks.

        The store's own history retention can be disabled
        (``keep_history=False``) once a recorder is attached; the recorder
        then becomes the single source of truth.
        """
        if store in self._stores:
            return store
        previous_evict = store.on_eviction
        previous_reject = store.on_rejection

        def on_eviction(record: EvictionRecord) -> None:
            self.evictions.append(record)
            if previous_evict is not None:
                previous_evict(record)

        def on_rejection(record: RejectionRecord) -> None:
            self.rejections.append(record)
            if previous_reject is not None:
                previous_reject(record)

        store.on_eviction = on_eviction
        store.on_rejection = on_rejection
        self._stores.append(store)
        return store

    # -- feeding -------------------------------------------------------------

    def record_arrival(
        self, t: float, size: int, admitted: bool, creator: str, object_id: str, unit: str = ""
    ) -> None:
        """Log one offered object (admitted or not)."""
        self.arrivals.add(t, size, admitted, creator, object_id, unit)

    def sample_density(self, now: float) -> None:
        """Take one density sample per attached store.

        When :mod:`repro.obs` is enabled, each sample also refreshes the
        per-unit ``store_importance_density`` / ``store_occupancy_ratio``
        gauges — the probe already pays for the density computation, so the
        gauges come for free.
        """
        for store in self._stores:
            density = importance_density(store, now)
            stats = store.stats()
            self.density_samples.append(
                DensitySample(
                    t=now,
                    density=density,
                    used_bytes=stats.used_bytes,
                    capacity_bytes=stats.capacity_bytes,
                    resident_count=stats.resident_count,
                )
            )
            if _OBS.enabled:
                registry = _OBS.registry
                registry.gauge(
                    "store_importance_density",
                    "Instantaneous storage importance density.",
                    ("unit",),
                ).set(density, unit=store.name)
                registry.gauge(
                    "store_occupancy_ratio",
                    "Fraction of raw capacity occupied.",
                    ("unit",),
                ).set(stats.utilization, unit=store.name)

    # -- derived series -------------------------------------------------------

    def rejections_cumulative(self) -> list[tuple[float, int]]:
        """Cumulative rejection count over time — the Figure 4 series."""
        return list(zip(self.rejections.column("t_rejected"), range(1, len(self.rejections) + 1)))

    def density_series(self) -> list[tuple[float, float]]:
        """``(t, density)`` pairs across all samples (Figures 6/12)."""
        return [(s.t, s.density) for s in self.density_samples]

    def admitted_count(self) -> int:
        """Number of admitted arrivals seen by this recorder."""
        return sum(self.arrivals.column("admitted"))

    def summary(self) -> dict[str, float]:
        """Coarse run summary used by reports and integration tests."""
        admitted = self.admitted_count()
        ev = self.evictions
        lifetimes = [
            t_evicted - t_arrival
            for t_evicted, t_arrival, reason in zip(
                ev.column("t_evicted"), ev.column("t_arrival"), ev.column("reason"))
            if reason == "preempted"
        ]
        densities = [s.density for s in self.density_samples]
        return {
            "arrivals": float(len(self.arrivals)),
            "admitted": float(admitted),
            "rejected": float(len(self.rejections)),
            "evicted": float(len(self.evictions)),
            "mean_achieved_lifetime_minutes": (
                sum(lifetimes) / len(lifetimes) if lifetimes else 0.0
            ),
            "mean_density": sum(densities) / len(densities) if densities else 0.0,
            "max_density": max(densities) if densities else 0.0,
        }

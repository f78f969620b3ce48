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
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from repro.core.density import DensitySample, importance_density
from repro.core.store import EvictionRecord, RejectionRecord, StorageUnit
from repro.obs import STATE as _OBS
from repro.units import MINUTES_PER_DAY

__all__ = ["ArrivalRecord", "Recorder", "merge_recorders"]


@dataclass(frozen=True)
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
        self.arrivals: list[ArrivalRecord] = []
        self.evictions: list[EvictionRecord] = []
        self.rejections: list[RejectionRecord] = []
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

    @property
    def stores(self) -> tuple[StorageUnit, ...]:
        """Stores currently attached."""
        return tuple(self._stores)

    # -- feeding -------------------------------------------------------------

    def record_arrival(
        self, t: float, size: int, admitted: bool, creator: str, object_id: str, unit: str = ""
    ) -> None:
        """Log one offered object (admitted or not)."""
        self.arrivals.append(
            ArrivalRecord(
                t=t, size=size, admitted=admitted, creator=creator,
                object_id=object_id, unit=unit,
            )
        )

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

    def arrival_bytes_cumulative(self) -> list[tuple[float, int]]:
        """Cumulative offered bytes over time — the Figure 2 series."""
        total = 0
        series = []
        for a in self.arrivals:
            total += a.size
            series.append((a.t, total))
        return series

    def lifetimes_achieved(
        self, *, creator: str | None = None, reason: str = "preempted"
    ) -> list[tuple[float, float]]:
        """``(t_evicted, achieved_lifetime)`` pairs in eviction order.

        The paper measures lifetimes *when the objects are evicted*
        (Figure 3's caption), so retained objects do not appear.
        ``reason`` filters the eviction cause (preempted vs expired sweeps);
        pass ``reason=None`` for all causes.
        """
        out = []
        for record in self.evictions:
            if reason is not None and record.reason != reason:
                continue
            if creator is not None and record.obj.creator != creator:
                continue
            out.append((record.t_evicted, record.achieved_lifetime))
        return out

    def rejections_per_day(self) -> dict[int, int]:
        """Count of turned-down requests keyed by simulation day."""
        counts: dict[int, int] = defaultdict(int)
        for record in self.rejections:
            counts[int(record.t_rejected // MINUTES_PER_DAY)] += 1
        return dict(counts)

    def rejections_cumulative(self) -> list[tuple[float, int]]:
        """Cumulative rejection count over time — the Figure 4 series."""
        series = []
        for i, record in enumerate(self.rejections, start=1):
            series.append((record.t_rejected, i))
        return series

    def importance_at_reclamation(
        self, *, creator: str | None = None
    ) -> list[tuple[float, float]]:
        """``(t_evicted, importance_at_eviction)`` pairs (Figure 10)."""
        out = []
        for record in self.evictions:
            if record.reason != "preempted":
                continue
            if creator is not None and record.obj.creator != creator:
                continue
            out.append((record.t_evicted, record.importance_at_eviction))
        return out

    def density_series(self) -> list[tuple[float, float]]:
        """``(t, density)`` pairs across all samples (Figures 6/12)."""
        return [(s.t, s.density) for s in self.density_samples]

    def admitted_count(self) -> int:
        """Number of admitted arrivals seen by this recorder."""
        return sum(1 for a in self.arrivals if a.admitted)

    def summary(self) -> dict[str, float]:
        """Coarse run summary used by reports and integration tests."""
        admitted = self.admitted_count()
        lifetimes = [r.achieved_lifetime for r in self.evictions if r.reason == "preempted"]
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


def merge_recorders(recorders: Iterable[Recorder]) -> Recorder:
    """Merge several recorders' streams into a new one (sorted by time).

    Useful when a distributed scenario records per-node and an experiment
    wants cluster-wide series.
    """
    merged = Recorder()
    for rec in recorders:
        merged.arrivals.extend(rec.arrivals)
        merged.evictions.extend(rec.evictions)
        merged.rejections.extend(rec.rejections)
        merged.density_samples.extend(rec.density_samples)
    merged.arrivals.sort(key=lambda a: a.t)
    merged.evictions.sort(key=lambda e: e.t_evicted)
    merged.rejections.sort(key=lambda r: r.t_rejected)
    merged.density_samples.sort(key=lambda s: s.t)
    return merged

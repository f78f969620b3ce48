"""Metric recording for simulation runs (paper Section 4.4).

A :class:`Recorder` is the :class:`~repro.core.store.History` that one or
more :class:`~repro.core.store.StorageUnit` instances log their decisions
into once attached, plus the density samples every experiment consumes:

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
columns: read-only sequences that rebuild a record when it is read.  The
units write them; the recorder only adds the offers no unit decides (a
cluster's refusals).
"""

from __future__ import annotations

from repro.core.density import DensitySample, importance_density
from repro.core.store import History, StorageUnit
from repro.errors import SimulationError

__all__ = ["Recorder"]


class Recorder(History):
    """One history shared by any number of units, plus density samples.

    A recorder may be attached to a single desktop or a whole Besteffs
    cluster; records carry the unit name so per-node analyses remain
    possible.
    """

    def __init__(self) -> None:
        super().__init__()
        self.density_samples: list[DensitySample] = []
        #: The attached units, in attach order.
        self.units: list[StorageUnit] = []

    # -- wiring --------------------------------------------------------------

    def attach(self, store: StorageUnit) -> StorageUnit:
        """Make this recorder the history ``store`` logs its decisions into.

        Attaching twice is a no-op.  A unit that already logs into another
        recorder, or whose own history holds records, is refused: each
        decision is logged once, in one history.
        """
        own = store.history
        if own is self:
            return store
        if own is not None and (
            isinstance(own, Recorder) or own.arrivals or own.evictions or own.rejections
        ):
            raise SimulationError(
                f"{store.name} already logs its decisions elsewhere; "
                "attach a recorder before the unit decides"
            )
        store.history = self
        self.units.append(store)
        return store

    # -- feeding -------------------------------------------------------------

    def record_arrival(
        self, t: float, size: int, admitted: bool, creator: str, object_id: str, unit: str = ""
    ) -> None:
        """Log one offer no attached unit decided (a cluster's refusal)."""
        self.arrivals.add(t, size, admitted, creator, object_id, unit)

    def sample_density(self, now: float) -> None:
        """Take one density sample per attached store."""
        for store in self.units:
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

    # -- derived series -------------------------------------------------------

    def rejections_cumulative(self) -> list[tuple[float, int]]:
        """Cumulative count of arrivals not admitted — the Figure 4 series.

        Read off the arrivals log, so a cluster's refusals (which no unit
        records as a rejection) count too.
        """
        arrivals = self.arrivals
        refused = [
            t for t, admitted in zip(arrivals.column("t"), arrivals.column("admitted"))
            if not admitted
        ]
        return list(zip(refused, range(1, len(refused) + 1)))

    def density_series(self) -> list[tuple[float, float]]:
        """``(t, density)`` pairs across all samples (Figures 6/12)."""
        return [(s.t, s.density) for s in self.density_samples]

    def admitted_count(self) -> int:
        """Number of admitted arrivals seen by this recorder."""
        return sum(self.arrivals.column("admitted"))

    def summary(self) -> dict[str, float]:
        """Coarse run summary used by reports and integration tests.

        ``rejected`` counts the arrivals not admitted, whoever refused them:
        a unit (one rejection record each) or a cluster placement.
        """
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
            "rejected": float(len(self.arrivals) - admitted),
            "evicted": float(len(self.evictions)),
            "mean_achieved_lifetime_minutes": (
                sum(lifetimes) / len(lifetimes) if lifetimes else 0.0
            ),
            "mean_density": sum(densities) / len(densities) if densities else 0.0,
            "max_density": max(densities) if densities else 0.0,
        }

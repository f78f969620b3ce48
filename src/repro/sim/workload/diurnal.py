"""Diurnal and holiday modulation of arrival streams (paper Section 5.1).

"Note that in realistic deployments, these rates may depend on the time of
the day and account for holidays and other events."  This module provides
that realism as a composable wrapper: :class:`DiurnalModulation` thins an
inner workload's arrivals with an hour-of-day profile, a weekend factor,
and holiday blackouts — without touching the inner generator's sizes,
annotations or seeds.

The practical consequence (measured by the Figure 5 extension assertions)
is that short-window time-constant estimation becomes even *less*
reliable: night and holiday windows starve the estimator exactly as the
academic calendar does in Figure 11.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core.obj import StoredObject
from repro.errors import SimulationError
from repro.sim.workload.base import Workload
from repro.units import MINUTES_PER_DAY, MINUTES_PER_HOUR

__all__ = ["DiurnalProfile", "DiurnalModulation", "OFFICE_HOURS_PROFILE"]


@dataclass(frozen=True)
class DiurnalProfile:
    """Relative arrival intensity per hour of day, plus calendar factors.

    ``hourly`` holds 24 non-negative weights; they are normalised so the
    *peak* hour keeps the inner workload's full rate and other hours are
    thinned proportionally.  ``weekend_factor`` scales Saturdays/Sundays
    (day 5 and 6 of the simulation week); ``holidays`` are absolute
    simulation days with no arrivals at all.
    """

    hourly: tuple[float, ...]
    weekend_factor: float = 1.0
    holidays: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if len(self.hourly) != 24:
            raise SimulationError(f"need 24 hourly weights, got {len(self.hourly)}")
        if any(w < 0 for w in self.hourly):
            raise SimulationError("hourly weights must be non-negative")
        if max(self.hourly) <= 0:
            raise SimulationError("at least one hour must have positive weight")
        if not 0.0 <= self.weekend_factor <= 1.0:
            raise SimulationError(
                f"weekend_factor must be in [0, 1], got {self.weekend_factor}"
            )

    def keep_probability(self, t_minutes: float) -> float:
        """Probability of keeping an arrival at time ``t``, in [0, 1]."""
        day = int(t_minutes // MINUTES_PER_DAY)
        if day in self.holidays:
            return 0.0
        hour = int(t_minutes // MINUTES_PER_HOUR) % 24
        p = self.hourly[hour] / max(self.hourly)
        if day % 7 in (5, 6):
            p *= self.weekend_factor
        return p


#: A standard office-hours shape: quiet nights, a 9-to-17 plateau,
#: evening shoulder, weekends at 30 %.
OFFICE_HOURS_PROFILE = DiurnalProfile(
    hourly=(
        0.05, 0.03, 0.02, 0.02, 0.03, 0.08,   # 00-05
        0.20, 0.45, 0.80, 1.00, 1.00, 1.00,   # 06-11
        0.90, 1.00, 1.00, 1.00, 0.95, 0.80,   # 12-17
        0.55, 0.40, 0.30, 0.20, 0.12, 0.08,   # 18-23
    ),
    weekend_factor=0.3,
)


@dataclass
class DiurnalModulation:
    """Thin an inner workload's arrivals through a diurnal profile.

    Wraps any :class:`~repro.sim.workload.base.Workload`; each inner
    arrival survives with the profile's keep-probability at its timestamp.
    The wrapper owns its own RNG so the inner stream's randomness is
    untouched (the same inner seed still yields the same candidate
    arrivals).
    """

    inner: Workload
    profile: DiurnalProfile = OFFICE_HOURS_PROFILE
    seed: int = 0

    def arrivals(self, horizon_minutes: float) -> Iterator[StoredObject]:
        rng = random.Random(self.seed)
        for obj in self.inner.arrivals(horizon_minutes):
            if rng.random() < self.profile.keep_probability(obj.t_arrival):
                yield obj


def semester_break_holidays(
    horizon_days: int, breaks: Sequence[tuple[int, int]]
) -> frozenset[int]:
    """Absolute holiday days from ``(start_doy, end_doy)`` break windows,
    repeated every 365-day year up to the horizon."""
    out = set()
    for day in range(horizon_days + 1):
        doy = day % 365
        for start, end in breaks:
            if start <= doy < end:
                out.add(day)
                break
    return frozenset(out)

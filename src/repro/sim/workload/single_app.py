"""Single-application-class workload (paper Section 5.1).

"Objects constantly arrive into the system at a rate that is randomly
distributed up to 0.5 GB an hour for the first three months.  Over the
following three month intervals, this rate increases to 0.7 GB/hr,
1.0 GB/hr and 1.3 GB/hr, respectively."

Each simulated hour produces, with probability ``arrival_probability``, one
object whose size is drawn uniformly from ``(0, cap(t)]`` where ``cap`` is
the quarter's rate cap; after the last configured quarter the cap holds at
its final value (the paper plots one year, Figure 2, and runs multi-year
horizons).  Every object carries the scenario's common lifetime function.

Calibration note: the paper states the 80–120 GB disks "will be fully used
up in about 40 to 50 days" and its eviction plots start "from 40 days or
so".  A continuous uniform draw every hour (mean 0.25 GB/hr in the first
quarter) would fill 80 GB in ~13 days, so the paper's "randomly
distributed" arrivals are clearly sparser than one-per-hour.  The default
``arrival_probability = 1/3`` reproduces the published fill time
(mean 2 GiB/day in the first quarter → 80 GiB in ~40 days) while keeping
the published rate caps and ramp.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.importance import ImportanceFunction, TwoStepImportance
from repro.core.obj import StoredObject
from repro.errors import SimulationError
from repro.units import MINUTES_PER_HOUR, days, gib, months

__all__ = ["RateRamp", "SingleAppWorkload", "PAPER_RAMP", "paper_two_step_lifetime"]


def paper_two_step_lifetime() -> TwoStepImportance:
    """The Section 5.1 annotation: important for 15 days, waning 15 more.

    "the object is definitely important for 15 days, might be important for
    another 15 days and probably not after 30 days."
    """
    return TwoStepImportance(p=1.0, t_persist=days(15), t_wane=days(15))


@dataclass(frozen=True)
class RateRamp:
    """Stepwise arrival-rate schedule.

    ``caps_gib_per_hour`` lists per-interval rate caps; each step lasts
    ``step_minutes``.  Past the final step the last cap holds.
    """

    caps_gib_per_hour: tuple[float, ...]
    step_minutes: float = months(3)

    def __post_init__(self) -> None:
        if not self.caps_gib_per_hour:
            raise SimulationError("rate ramp needs at least one cap")
        if any(c <= 0 for c in self.caps_gib_per_hour):
            raise SimulationError(f"rate caps must be positive, got {self.caps_gib_per_hour}")
        if self.step_minutes <= 0:
            raise SimulationError(f"step duration must be positive, got {self.step_minutes}")

    def cap_at(self, t_minutes: float) -> float:
        """Rate cap (GiB/hour) in effect at time ``t``."""
        idx = int(t_minutes // self.step_minutes)
        idx = min(idx, len(self.caps_gib_per_hour) - 1)
        return self.caps_gib_per_hour[idx]


#: The paper's published ramp: 0.5/0.7/1.0/1.3 GiB/hr per quarter.
PAPER_RAMP = RateRamp(caps_gib_per_hour=(0.5, 0.7, 1.0, 1.3))


@dataclass
class SingleAppWorkload:
    """Hourly arrivals of uniformly sized objects under a rate ramp.

    Parameters
    ----------
    lifetime:
        The common importance function stamped onto every object; defaults
        to the paper's two-step annotation.  Pass
        :class:`~repro.core.importance.FixedLifetimeImportance` or
        :class:`~repro.core.importance.DiracImportance` for the baselines.
    ramp:
        Rate schedule; defaults to the paper's published ramp.
    seed:
        Seed for the workload's private RNG.
    arrival_probability:
        Probability that a given hour produces an object (see the module
        calibration note).
    min_object_bytes:
        Lower bound on drawn sizes, keeping objects realistic (a draw of
        a few bytes would be a degenerate "video").
    """

    lifetime: ImportanceFunction = field(default_factory=paper_two_step_lifetime)
    ramp: RateRamp = PAPER_RAMP
    seed: int = 0
    creator: str = "single-app"
    arrival_probability: float = 1.0 / 3.0
    min_object_bytes: int = 16 * 1024 * 1024

    def __post_init__(self) -> None:
        if not 0.0 < self.arrival_probability <= 1.0:
            raise SimulationError(
                f"arrival_probability must be in (0, 1], got {self.arrival_probability}"
            )

    def arrivals(self, horizon_minutes: float) -> Iterator[StoredObject]:
        """Yield at most one object per hour up to the horizon."""
        rng = random.Random(self.seed)
        t = 0.0
        while t <= horizon_minutes:
            if rng.random() < self.arrival_probability:
                cap_bytes = gib(self.ramp.cap_at(t))
                size = max(self.min_object_bytes, int(rng.uniform(0.0, cap_bytes)))
                yield StoredObject(
                    size=size,
                    t_arrival=t,
                    lifetime=self.lifetime,
                    creator=self.creator,
                )
            t += MINUTES_PER_HOUR

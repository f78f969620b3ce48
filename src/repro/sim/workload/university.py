"""University-wide capture workload (paper Section 5.3).

All 2,321 courses of the university are captured.  The stream is the
lecture-capture generator scaled up, with course captures spread across
the class day so a 2,000-node cluster sees a steady offered load rather
than a single burst.  The paper reports ~300 TB/year of demand against
160 TB (2,000 × 80 GB) or 240 TB (2,000 × 120 GB) of raw capacity — i.e.
the system *cannot* store a full year and must reclaim continuously.

``UniversityConfig.scaled`` produces a proportionally shrunk configuration
(fewer courses, fewer nodes) that preserves the demand/capacity ratio so
benchmark-sized runs exhibit the same qualitative behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.core.obj import StoredObject
from repro.errors import SimulationError
from repro.sim.workload.calendar import (
    PAPER_CALENDAR,
    AcademicCalendar,
    student_lifetime_for_day,
    university_lifetime_for_day,
)
from repro.sim.workload.lecture import (
    STUDENT_CREATOR,
    UNIVERSITY_CREATOR,
    LectureConfig,
)
from repro.units import MINUTES_PER_DAY

__all__ = ["UniversityConfig", "UniversityWorkload"]

#: The paper's course count.
PAPER_COURSES = 2321
#: The paper's cluster size.
PAPER_NODES = 2000


@dataclass(frozen=True)
class UniversityConfig:
    """Scale parameters of the university-wide scenario."""

    courses: int = PAPER_COURSES
    nodes: int = PAPER_NODES
    lecture: LectureConfig = field(default_factory=lambda: LectureConfig(courses=1))
    #: Courses captured per class day as a fraction (some courses do not
    #: meet every MWF slot); 1.0 captures every course every class day.
    meet_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.courses < 1 or self.nodes < 1:
            raise SimulationError(
                f"courses and nodes must be >= 1, got {self.courses}, {self.nodes}"
            )
        if not 0.0 < self.meet_fraction <= 1.0:
            raise SimulationError(f"meet_fraction must be in (0, 1], got {self.meet_fraction}")

    def scaled(self, factor: float) -> "UniversityConfig":
        """Shrink the scenario by ``factor`` preserving demand/capacity.

        Both the course count and the node count shrink together, so the
        per-node pressure — the quantity that drives reclamation — stays
        the same.
        """
        if not 0.0 < factor <= 1.0:
            raise SimulationError(f"scale factor must be in (0, 1], got {factor}")
        return replace(
            self,
            courses=max(1, round(self.courses * factor)),
            nodes=max(1, round(self.nodes * factor)),
        )


@dataclass
class UniversityWorkload:
    """Arrival stream for the whole university's capture system."""

    config: UniversityConfig = field(default_factory=UniversityConfig)
    calendar: AcademicCalendar = PAPER_CALENDAR
    seed: int = 0

    def arrivals(self, horizon_minutes: float) -> Iterator[StoredObject]:
        """Yield captures for every meeting course, spread across each day."""
        rng = random.Random(self.seed)
        cfg = self.config
        lec = cfg.lecture
        horizon_days = int(horizon_minutes // MINUTES_PER_DAY)
        # Courses are spread over the working day (08:00–20:00).
        day_start = 8 * 60
        day_span = 12 * 60
        for day in range(horizon_days + 1):
            doy = day % 365
            if day % 7 not in lec.weekday_pattern:
                continue
            if not self.calendar.in_session(doy):
                continue
            base = day * MINUTES_PER_DAY
            # Table 1 reads an arrival time only through its day of year,
            # and every offset below stays inside this day: one annotation
            # pair serves the whole class day.
            university = university_lifetime_for_day(base, self.calendar)
            student = student_lifetime_for_day(base, self.calendar)
            for course in range(cfg.courses):
                if cfg.meet_fraction < 1.0 and rng.random() >= cfg.meet_fraction:
                    continue
                offset = day_start + (course * day_span) // max(1, cfg.courses)
                t = float(base + offset)
                if t > horizon_minutes:
                    continue
                yield StoredObject(
                    size=lec.university_object_bytes,
                    t_arrival=t,
                    lifetime=university,
                    creator=UNIVERSITY_CREATOR,
                    metadata={"course": course, "day": day},
                )
                n_students = sum(
                    1 for _ in range(lec.max_students) if rng.random() < lec.student_probability
                )
                for s in range(n_students):
                    yield StoredObject(
                        size=lec.student_object_bytes,
                        t_arrival=t,
                        lifetime=student,
                        creator=STUDENT_CREATOR,
                        metadata={"course": course, "day": day, "student": s},
                    )

    def annual_demand_bytes(self) -> float:
        """Approximate offered bytes per simulated year (for docs/tests)."""
        lec = self.config.lecture
        class_days = len(self.calendar.class_days(
            365 * MINUTES_PER_DAY, weekday_pattern=lec.weekday_pattern
        ))
        per_lecture = (
            lec.university_object_bytes
            + lec.max_students * lec.student_probability * lec.student_object_bytes
        )
        return per_lecture * self.config.courses * self.config.meet_fraction * class_days

"""Lecture-capture workload (paper Sections 5.2 and 4.1).

Every class day (default Monday/Wednesday/Friday while a term is in
session), each course produces:

* one **university** camera object — a 1 Mbps stream of the lecture
  duration, with the Table 1 two-step lifetime for the capture day, and
* zero to three **student** interpretation objects — MPEG-4 streams forced
  to 320×240 (modelled at a lower bitrate), pegged at 50 % importance until
  the end of the semester and waning for two weeks after it.

The paper's single-semester course measured ~25 GB (Section 1): at 1 Mbps a
75-minute lecture is ≈0.55 GiB and a ~42-lecture semester lands within a
factor of ~1.1 of that figure, so the simulated storage pressure matches
the reported magnitude.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.obj import StoredObject
from repro.errors import SimulationError
from repro.sim.workload.calendar import (
    PAPER_CALENDAR,
    AcademicCalendar,
    student_lifetime_for_day,
    university_lifetime_for_day,
)
from repro.units import MINUTES_PER_DAY, MINUTES_PER_HOUR

__all__ = ["LectureConfig", "LectureCaptureWorkload", "stream_bytes"]

#: Creator labels used across the experiments and analyses.
UNIVERSITY_CREATOR = "university"
STUDENT_CREATOR = "student"


def stream_bytes(bitrate_bps: float, duration_minutes: float) -> int:
    """Size in bytes of a constant-bitrate stream of the given duration."""
    if bitrate_bps <= 0 or duration_minutes <= 0:
        raise SimulationError(
            f"bitrate and duration must be positive, got {bitrate_bps}, {duration_minutes}"
        )
    return int(bitrate_bps * duration_minutes * 60 / 8)


@dataclass(frozen=True)
class LectureConfig:
    """Parameters of the lecture-capture scenario.

    Defaults follow the paper: a 1 Mbps university stream, up to three
    student streams per lecture at a lower (320×240 MPEG-4) bitrate,
    Monday/Wednesday/Friday lectures.
    """

    courses: int = 1
    lectures_per_day_per_course: int = 1
    lecture_minutes: float = 75.0
    university_bitrate_bps: float = 1_000_000.0
    student_bitrate_bps: float = 384_000.0
    max_students: int = 3
    student_probability: float = 0.5
    weekday_pattern: tuple[int, ...] = (0, 2, 4)
    capture_hour: int = 10

    def __post_init__(self) -> None:
        if self.courses < 1:
            raise SimulationError(f"courses must be >= 1, got {self.courses}")
        if self.max_students < 0:
            raise SimulationError(f"max_students must be >= 0, got {self.max_students}")
        if not 0.0 <= self.student_probability <= 1.0:
            raise SimulationError(
                f"student_probability must be in [0, 1], got {self.student_probability}"
            )
        if not 0 <= self.capture_hour <= 23:
            raise SimulationError(f"capture_hour must be in [0, 23], got {self.capture_hour}")

    @property
    def university_object_bytes(self) -> int:
        """Size of one university camera object."""
        return stream_bytes(self.university_bitrate_bps, self.lecture_minutes)

    @property
    def student_object_bytes(self) -> int:
        """Size of one student interpretation object."""
        return stream_bytes(self.student_bitrate_bps, self.lecture_minutes)


@dataclass
class LectureCaptureWorkload:
    """Arrival stream of lecture captures over the academic calendar."""

    config: LectureConfig = field(default_factory=LectureConfig)
    calendar: AcademicCalendar = PAPER_CALENDAR
    seed: int = 0

    def arrivals(self, horizon_minutes: float) -> Iterator[StoredObject]:
        """Yield university and student objects in time order."""
        rng = random.Random(self.seed)
        cfg = self.config
        horizon_days = int(horizon_minutes // MINUTES_PER_DAY)
        # One size int per creator class, shared by every object of it.
        university_bytes = cfg.university_object_bytes
        student_bytes = cfg.student_object_bytes
        for day in range(horizon_days + 1):
            doy = day % 365
            if day % 7 not in cfg.weekday_pattern:
                continue
            if not self.calendar.in_session(doy):
                continue
            base = day * MINUTES_PER_DAY + cfg.capture_hour * MINUTES_PER_HOUR
            for course in range(cfg.courses):
                # Spread concurrent courses across the day minute-by-minute
                # so arrival order (and hence eviction order) is stable.
                for slot in range(cfg.lectures_per_day_per_course):
                    t = base + course + slot * MINUTES_PER_HOUR * 2
                    if t > horizon_minutes:
                        continue
                    yield StoredObject(
                        size=university_bytes,
                        t_arrival=float(t),
                        lifetime=university_lifetime_for_day(t, self.calendar),
                        creator=UNIVERSITY_CREATOR,
                    )
                    n_students = sum(
                        1
                        for _ in range(cfg.max_students)
                        if rng.random() < cfg.student_probability
                    )
                    for s in range(n_students):
                        ts = t + (s + 1) * 0.0  # same minute as the lecture
                        yield StoredObject(
                            size=student_bytes,
                            t_arrival=float(ts),
                            lifetime=student_lifetime_for_day(ts, self.calendar),
                            creator=STUDENT_CREATOR,
                        )

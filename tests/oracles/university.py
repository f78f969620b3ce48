"""The university arrival stream with one annotation built per object.

This is the loop ``UniversityWorkload.arrivals`` ran before it built its
two Table 1 annotations once per class day: every capture calls
``university_lifetime_for_day(t)`` / ``student_lifetime_for_day(t)`` with
its own arrival time.  Both read ``t`` only through its day of year, so
the per-day stream must equal this one object for object — same sizes,
times, annotation *values*, creators, metadata, auto-assigned ids and RNG
draws — which is what the differential test requires.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.core.obj import StoredObject
from repro.sim.workload.calendar import (
    student_lifetime_for_day,
    university_lifetime_for_day,
)
from repro.sim.workload.lecture import STUDENT_CREATOR, UNIVERSITY_CREATOR
from repro.sim.workload.university import UniversityWorkload
from repro.units import MINUTES_PER_DAY

__all__ = ["arrivals_per_object"]


def arrivals_per_object(
    workload: UniversityWorkload, horizon_minutes: float
) -> Iterator[StoredObject]:
    """``workload.arrivals(horizon_minutes)``, annotating every capture afresh."""
    rng = random.Random(workload.seed)
    cfg = workload.config
    lec = cfg.lecture
    horizon_days = int(horizon_minutes // MINUTES_PER_DAY)
    day_start = 8 * 60
    day_span = 12 * 60
    for day in range(horizon_days + 1):
        doy = day % 365
        if day % 7 not in lec.weekday_pattern:
            continue
        if not workload.calendar.in_session(doy):
            continue
        base = day * MINUTES_PER_DAY
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
                lifetime=university_lifetime_for_day(t, workload.calendar),
                creator=UNIVERSITY_CREATOR,
            )
            n_students = sum(
                1 for _ in range(lec.max_students) if rng.random() < lec.student_probability
            )
            for _ in range(n_students):
                yield StoredObject(
                    size=lec.student_object_bytes,
                    t_arrival=t,
                    lifetime=student_lifetime_for_day(t, workload.calendar),
                    creator=STUDENT_CREATOR,
                )

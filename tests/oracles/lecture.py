"""Mean offered bytes per class day of the lecture-capture workload.

The closed form a capacity plan starts from: one university capture per
course and lecture slot, plus ``max_students * student_probability``
student captures on average.  Tests hold the generator's offered bytes to
it.
"""

from __future__ import annotations

from repro.sim.workload.lecture import LectureConfig

__all__ = ["expected_bytes_per_term_day"]


def expected_bytes_per_term_day(cfg: LectureConfig) -> float:
    """Mean offered bytes per class day under ``cfg``."""
    per_lecture = (
        cfg.university_object_bytes
        + cfg.max_students * cfg.student_probability * cfg.student_object_bytes
    )
    return per_lecture * cfg.courses * cfg.lectures_per_day_per_course

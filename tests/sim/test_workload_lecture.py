"""Tests for the lecture-capture workload (Section 5.2)."""

import pytest

from repro.errors import SimulationError
from repro.sim.workload.calendar import PAPER_CALENDAR
from repro.sim.workload.lecture import (
    STUDENT_CREATOR,
    UNIVERSITY_CREATOR,
    LectureCaptureWorkload,
    LectureConfig,
    stream_bytes,
)
from repro.units import days, gib, mib
from tests.oracles.lecture import expected_bytes_per_term_day


class TestStreamBytes:
    def test_one_mbps_75_minutes(self):
        # 1 Mbps * 75 min = 1e6 * 4500 / 8 bytes = 562.5 MB
        assert stream_bytes(1_000_000, 75.0) == 562_500_000

    def test_rejects_nonpositive(self):
        with pytest.raises(SimulationError):
            stream_bytes(0, 75.0)
        with pytest.raises(SimulationError):
            stream_bytes(1_000_000, 0.0)


class TestLectureConfig:
    def test_default_sizes_are_video_scale(self):
        cfg = LectureConfig()
        assert mib(400) < cfg.university_object_bytes < gib(1)
        assert cfg.student_object_bytes < cfg.university_object_bytes

    def test_semester_magnitude_matches_paper(self):
        # The paper's one-course semester consumed ~25 GB; our defaults
        # should land in the same ballpark (tens of GB per semester).
        cfg = LectureConfig()
        spring_class_days = sum(
            1 for d in range(8, 120) if d % 7 in cfg.weekday_pattern
        )
        semester_bytes = cfg.university_object_bytes * spring_class_days
        assert gib(15) < semester_bytes < gib(40)

    @pytest.mark.parametrize("bad_kwargs", [
        {"courses": 0},
        {"max_students": -1},
        {"student_probability": 1.5},
        {"capture_hour": 25},
    ])
    def test_rejects_invalid(self, bad_kwargs):
        with pytest.raises(SimulationError):
            LectureConfig(**bad_kwargs)


class TestLectureCaptureWorkload:
    def test_only_class_days_produce_objects(self):
        workload = LectureCaptureWorkload(seed=1)
        for obj in workload.arrivals(days(200)):
            day = int(obj.t_arrival // days(1))
            assert day % 7 in workload.config.weekday_pattern
            assert PAPER_CALENDAR.in_session(day % 365)

    def test_every_lecture_has_one_university_object(self):
        workload = LectureCaptureWorkload(seed=1)
        horizon = days(60)
        objs = list(workload.arrivals(horizon))
        capture_minute = workload.config.capture_hour * 60
        class_days = [
            d
            for d in PAPER_CALENDAR.class_days(horizon)
            if d * days(1) + capture_minute <= horizon
        ]
        university = [o for o in objs if o.creator == UNIVERSITY_CREATOR]
        assert len(university) == len(class_days)

    def test_students_are_zero_to_three_per_lecture(self):
        workload = LectureCaptureWorkload(seed=2)
        by_day: dict[int, int] = {}
        for obj in workload.arrivals(days(365)):
            if obj.creator == STUDENT_CREATOR:
                day = int(obj.t_arrival // days(1))
                by_day[day] = by_day.get(day, 0) + 1
        assert by_day  # students do appear
        assert all(0 < n <= 3 for n in by_day.values())

    def test_student_objects_carry_half_importance(self):
        workload = LectureCaptureWorkload(seed=3)
        students = [
            o for o in workload.arrivals(days(100)) if o.creator == STUDENT_CREATOR
        ]
        assert students
        for obj in students:
            assert obj.importance_at(obj.t_arrival) == 0.5

    def test_university_objects_fully_important_until_term_end(self):
        workload = LectureCaptureWorkload(seed=3)
        obj = next(iter(workload.arrivals(days(30))))
        assert obj.creator == UNIVERSITY_CREATOR
        assert obj.importance_at(days(119)) == 1.0  # term runs to day 120
        assert obj.importance_at(days(125)) < 1.0

    def test_stream_is_time_ordered(self):
        times = [o.t_arrival for o in LectureCaptureWorkload(seed=4).arrivals(days(400))]
        assert times == sorted(times)

    def test_deterministic_per_seed(self):
        def fingerprint(seed):
            return [
                (o.t_arrival, o.size, o.creator)
                for o in LectureCaptureWorkload(seed=seed).arrivals(days(120))
            ]

        assert fingerprint(7) == fingerprint(7)
        assert fingerprint(7) != fingerprint(8)

    def test_multi_course_scales_object_count(self):
        single = sum(1 for _ in LectureCaptureWorkload(
            config=LectureConfig(courses=1, student_probability=0.0), seed=5
        ).arrivals(days(60)))
        triple = sum(1 for _ in LectureCaptureWorkload(
            config=LectureConfig(courses=3, student_probability=0.0), seed=5
        ).arrivals(days(60)))
        assert triple == 3 * single

    def test_expected_bytes_per_term_day(self):
        cfg = LectureConfig(courses=10, student_probability=0.5)
        expected = expected_bytes_per_term_day(cfg)
        assert expected == pytest.approx(
            10 * (cfg.university_object_bytes + 1.5 * cfg.student_object_bytes)
        )
        objs = list(LectureCaptureWorkload(config=cfg, seed=5).arrivals(days(365)))
        class_days = {int(obj.t_arrival // days(1)) for obj in objs}
        offered = sum(obj.size for obj in objs) / len(class_days)
        assert offered == pytest.approx(expected, rel=0.03)

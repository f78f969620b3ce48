"""Tests for the university-wide workload (Section 5.3)."""

import pytest

from repro.core.obj import reset_object_ids
from repro.errors import SimulationError
from repro.sim.workload.calendar import PAPER_CALENDAR, Term
from repro.sim.workload.lecture import STUDENT_CREATOR, UNIVERSITY_CREATOR
from repro.sim.workload.university import (
    PAPER_COURSES,
    PAPER_NODES,
    UniversityConfig,
    UniversityWorkload,
)
from repro.units import days, tib
from tests.oracles.university import arrivals_per_object


class TestUniversityConfig:
    def test_paper_defaults(self):
        cfg = UniversityConfig()
        assert cfg.courses == PAPER_COURSES == 2321
        assert cfg.nodes == PAPER_NODES == 2000

    def test_scaled_preserves_ratio(self):
        cfg = UniversityConfig().scaled(0.01)
        assert cfg.courses == 23
        assert cfg.nodes == 20
        assert cfg.courses / cfg.nodes == pytest.approx(
            PAPER_COURSES / PAPER_NODES, rel=0.15
        )

    def test_scaled_rejects_bad_factor(self):
        with pytest.raises(SimulationError):
            UniversityConfig().scaled(0.0)
        with pytest.raises(SimulationError):
            UniversityConfig().scaled(1.5)

    def test_rejects_invalid_counts(self):
        with pytest.raises(SimulationError):
            UniversityConfig(courses=0)
        with pytest.raises(SimulationError):
            UniversityConfig(meet_fraction=0.0)


class TestUniversityWorkload:
    def test_annual_demand_magnitude_matches_paper(self):
        # The paper reports ~300 TB/year of capture demand; our default
        # parameters should land within a factor of ~2 of that.
        demand = UniversityWorkload().annual_demand_bytes()
        assert tib(100) < demand < tib(500)

    def test_demand_exceeds_paper_cluster_capacity(self):
        # 2,000 x 80 GB = 160 TB < annual demand: the cluster cannot hold
        # one year of captures (the Section 5.3 premise).
        demand = UniversityWorkload().annual_demand_bytes()
        assert demand > 2000 * 80 * 2**30

    def test_arrivals_are_time_ordered_and_in_session(self):
        cfg = UniversityConfig().scaled(0.005)
        workload = UniversityWorkload(config=cfg, seed=1)
        times = []
        for obj in workload.arrivals(days(60)):
            times.append(obj.t_arrival)
            assert obj.creator in (UNIVERSITY_CREATOR, STUDENT_CREATOR)
        assert times == sorted(times)
        assert times  # terms in session produce captures

    def test_courses_spread_across_the_working_day(self):
        cfg = UniversityConfig(courses=12, nodes=4)
        workload = UniversityWorkload(config=cfg, seed=1)
        first_day_offsets = set()
        for obj in workload.arrivals(days(15)):
            if obj.creator == UNIVERSITY_CREATOR:
                first_day_offsets.add(obj.t_arrival % days(1))
        assert len(first_day_offsets) == 12
        assert min(first_day_offsets) >= 8 * 60       # not before 08:00
        assert max(first_day_offsets) < 20 * 60       # before 20:00

    def test_meet_fraction_thins_captures(self):
        full = sum(
            1
            for o in UniversityWorkload(
                config=UniversityConfig(courses=40, nodes=4), seed=2
            ).arrivals(days(30))
            if o.creator == UNIVERSITY_CREATOR
        )
        half = sum(
            1
            for o in UniversityWorkload(
                config=UniversityConfig(courses=40, nodes=4, meet_fraction=0.5), seed=2
            ).arrivals(days(30))
            if o.creator == UNIVERSITY_CREATOR
        )
        assert half < full * 0.75


class TestClassDayAnnotations:
    """The stream builds its two annotations once per class day; the
    per-object loop it replaced (``tests/oracles/university.py``) is the
    reference it must equal object for object."""

    # A year and a half: spring, the May break, summer, the August break,
    # fall, the new-year wrap and a second spring.
    HORIZON = days(520)

    @pytest.mark.parametrize("meet_fraction", [1.0, 0.7])
    def test_stream_equals_the_per_object_loop(self, meet_fraction):
        cfg = UniversityConfig(courses=9, nodes=4, meet_fraction=meet_fraction)
        workload = UniversityWorkload(config=cfg, seed=11)

        def fields(stream):
            reset_object_ids()
            return [
                (o.size, o.t_arrival, o.lifetime, o.creator, o.metadata, o.object_id)
                for o in stream
            ]

        got = fields(workload.arrivals(self.HORIZON))
        want = fields(arrivals_per_object(workload, self.HORIZON))
        assert got == want
        doys = {int(t // days(1)) % 365 for _size, t, *_rest in got}
        assert {term.term for term in map(PAPER_CALENDAR.term_for_day, doys)} == set(Term)
        assert not any(120 <= doy < 150 or 210 <= doy < 248 for doy in doys)  # breaks

    def test_one_annotation_object_per_class_day_and_creator(self):
        cfg = UniversityConfig(courses=9, nodes=4)
        by_key: dict[tuple[int, str], set[int]] = {}
        stream = list(UniversityWorkload(config=cfg, seed=11).arrivals(self.HORIZON))
        for obj in stream:
            key = (obj.metadata["day"], obj.creator)
            by_key.setdefault(key, set()).add(id(obj.lifetime))
        assert len(by_key) > 200
        assert all(len(ids) == 1 for ids in by_key.values())

    def test_a_class_day_cut_short_by_the_horizon_builds_nothing_that_raises(self):
        # Day 14 is a Monday in spring; the horizon ends before 08:00.
        workload = UniversityWorkload(config=UniversityConfig(courses=3, nodes=2))
        assert all(o.metadata["day"] < 14 for o in workload.arrivals(days(14) + 60.0))

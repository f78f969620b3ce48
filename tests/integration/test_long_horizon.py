"""Paper-scale horizon tests (Section 4.3: five and ten simulated years).

The figure benches run 1–3 years for wall-clock economy; these tests run
the full five-year horizon the paper uses and check that the system is
*stable* over it: no drift in the invariants, a steady pressure plateau,
and behaviour consistent with the short-horizon results.
"""

import pytest

from repro.experiments.common import (
    POLICY_NO_IMPORTANCE,
    POLICY_PALIMPSEST,
    POLICY_TEMPORAL,
    LectureSetup,
    SingleAppSetup,
    run_lecture_scenario,
    run_single_app_scenario,
)
from repro.units import days, to_days

FIVE_YEARS = 5 * 365.0


class TestFiveYearSingleApp:
    @pytest.fixture(scope="class")
    def result(self):
        return run_single_app_scenario(
            SingleAppSetup(
                capacity_gib=80, horizon_days=FIVE_YEARS, seed=42,
                policy=POLICY_TEMPORAL,
            )
        )

    def test_invariants_hold_to_the_end(self, result):
        assert result.store.used_bytes <= result.store.capacity_bytes
        assert all(
            0.0 <= s.density <= 1.0 for s in result.recorder.density_samples
        )

    def test_pressure_plateau_is_steady(self, result):
        """After year one the density plateau should not drift: the
        annotation keeps trading old bytes for new ones indefinitely."""
        def year_mean(year):
            lo, hi = days(365.0 * year), days(365.0 * (year + 1))
            samples = [
                s.density for s in result.recorder.density_samples
                if lo <= s.t < hi
            ]
            return sum(samples) / len(samples)

        year_means = [year_mean(y) for y in range(1, 5)]
        assert max(year_means) - min(year_means) < 0.05

    def test_achieved_lifetimes_stay_in_band(self, result):
        """Steady-state achieved lifetimes remain between the persistence
        knee (15 d) and the full request (30 d) for all five years."""
        late = [
            r for r in result.recorder.evictions
            if r.reason == "preempted" and r.t_evicted > days(365)
        ]
        assert late
        mean = sum(to_days(r.achieved_lifetime) for r in late) / len(late)
        assert 15.0 <= mean <= 30.0

    def test_rejection_rate_stays_low(self, result):
        """The temporal policy absorbs pressure by waning, not rejecting,
        even as the arrival rate holds at its ramped maximum for 4 years."""
        rate = len(result.recorder.rejections) / len(result.recorder.arrivals)
        assert rate < 0.05


class TestFiveYearLecture:
    def test_lecture_scenario_runs_the_paper_horizon(self):
        result = run_lecture_scenario(
            LectureSetup(
                capacity_gib=80, horizon_days=FIVE_YEARS, seed=42,
                policy=POLICY_TEMPORAL,
            )
        )
        # All five academic years produced captures and the store ends hot.
        last_arrival = max(a.t for a in result.recorder.arrivals)
        assert last_arrival > days(4 * 365)
        assert result.store.utilization() > 0.9
        # University differentiation persists at steady state.
        university = [
            r for r in result.recorder.evictions
            if r.reason == "preempted" and r.creator == "university"
            and r.t_evicted > days(2 * 365)
        ]
        students = [
            r for r in result.recorder.evictions
            if r.reason == "preempted" and r.creator == "student"
            and r.t_evicted > days(2 * 365)
        ]
        assert university and students
        mean_u = sum(to_days(r.achieved_lifetime) for r in university) / len(university)
        mean_s = sum(to_days(r.achieved_lifetime) for r in students) / len(students)
        assert mean_u > 2 * mean_s


class TestFiveYearBaselines:
    @pytest.mark.parametrize("policy", [POLICY_NO_IMPORTANCE, POLICY_PALIMPSEST])
    def test_baselines_survive_the_horizon(self, policy):
        result = run_single_app_scenario(
            SingleAppSetup(
                capacity_gib=80, horizon_days=FIVE_YEARS, seed=42, policy=policy
            )
        )
        assert result.store.used_bytes <= result.store.capacity_bytes
        if policy == POLICY_PALIMPSEST:
            assert not result.recorder.rejections
        else:
            assert result.recorder.rejections

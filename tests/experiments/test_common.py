"""Tests for the shared experiment harness."""

import pytest

from repro.core.policies import (
    FixedLifetimePolicy,
    PalimpsestPolicy,
    TemporalImportancePolicy,
)
from repro.errors import ReproError
from repro.experiments.common import (
    POLICY_NO_IMPORTANCE,
    POLICY_PALIMPSEST,
    POLICY_TEMPORAL,
    LectureSetup,
    SingleAppSetup,
    build_single_app_scenario,
    run_lecture_scenario,
    run_single_app_scenario,
)
from repro.units import gib


class TestSingleAppSetup:
    @pytest.mark.parametrize("policy,policy_type", [
        (POLICY_TEMPORAL, TemporalImportancePolicy),
        (POLICY_NO_IMPORTANCE, FixedLifetimePolicy),
        (POLICY_PALIMPSEST, PalimpsestPolicy),
    ])
    def test_builds_matching_policy_and_annotation(self, policy, policy_type):
        store, workload = build_single_app_scenario(
            SingleAppSetup(capacity_gib=10, policy=policy)
        )
        assert isinstance(store.policy, policy_type)
        assert store.capacity_bytes == gib(10)
        obj = next(iter(workload.arrivals(0.0)), None)
        if obj is not None:
            assert obj.lifetime is workload.lifetime

    def test_unknown_policy_raises(self):
        with pytest.raises(ReproError, match="unknown policy"):
            build_single_app_scenario(SingleAppSetup(policy="fifo-ish"))


class TestScenarioRuns:
    def test_single_app_short_run(self):
        result = run_single_app_scenario(
            SingleAppSetup(capacity_gib=4, horizon_days=30.0, seed=1)
        )
        assert result.summary["arrivals"] > 100
        assert result.recorder.density_samples

    def test_lecture_short_run_has_both_creators(self):
        result = run_lecture_scenario(
            LectureSetup(capacity_gib=4, horizon_days=120.0, seed=1)
        )
        creators = {a.creator for a in result.recorder.arrivals}
        assert creators == {"university", "student"}

    def test_unknown_lecture_policy_raises(self):
        with pytest.raises(ReproError):
            run_lecture_scenario(LectureSetup(policy="nope", horizon_days=1.0))

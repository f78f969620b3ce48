"""Unit tests for the per-phase wall-clock profile (``profile_phase_seconds``)."""

import json

from repro import obs
from repro.report.metrics import metrics_summary


class TestPhaseProfiler:
    def test_observe_aggregates_per_phase(self):
        obs.observe_phase("placement.round", 0.010)
        obs.observe_phase("placement.round", 0.030)
        obs.observe_phase("gossip.round", 0.005)
        phases = obs.STATE.registry.get("profile_phase_seconds")
        snap = phases.snapshot(phase="placement.round")
        assert snap["count"] == 2
        assert snap["sum"] == 0.040
        assert snap["max"] == 0.030
        assert sorted(phases.series()) == [("gossip.round",), ("placement.round",)]

    def test_observations_mirror_into_registry_histogram(self):
        obs.observe_phase("store.plan_admission", 0.002)
        metric = obs.STATE.registry.get("profile_phase_seconds")
        assert metric is not None
        assert metric.labelnames == ("phase",)
        assert metric.snapshot(phase="store.plan_admission")["count"] == 1

    def test_aggregates_are_json_friendly(self):
        obs.observe_phase("a", 0.1)
        exported = json.loads(json.dumps(obs.STATE.registry.to_dict()))
        (series,) = exported["profile_phase_seconds"]["series"]
        assert series["labels"] == {"phase": "a"}
        assert (series["count"], series["sum"]) == (1, 0.1)

    def test_render_and_reset(self):
        obs.observe_phase("gossip.round", 0.2)
        assert "profile_phase_seconds{phase=gossip.round}" in metrics_summary(
            obs.STATE.registry
        )
        obs.reset()
        assert obs.STATE.registry.get("profile_phase_seconds") is None

"""Determinism tests: identical seeds produce bit-identical simulations.

Reproducibility is a first-class requirement for a reproduction package:
every stochastic component (workloads, placement RNG, churn, download
traces) owns a seeded private RNG, so a rerun with the same seeds must
replay the exact same event streams.
"""

from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.placement import PlacementConfig
from repro.core.obj import reset_object_ids
from repro.experiments.common import (
    POLICY_TEMPORAL,
    SingleAppSetup,
    run_single_app_scenario,
)
from repro.sim.workload.lecture import LectureCaptureWorkload
from repro.sim.workload.university import UniversityConfig, UniversityWorkload
from repro.units import days, gib


def eviction_fingerprint(recorder):
    return [
        (r.object_id, r.t_evicted, r.importance_at_eviction, r.reason)
        for r in recorder.evictions
    ]


class TestSingleStoreDeterminism:
    def test_identical_runs_replay_exactly(self):
        def run():
            reset_object_ids()
            result = run_single_app_scenario(
                SingleAppSetup(
                    capacity_gib=20, horizon_days=150.0, seed=5,
                    policy=POLICY_TEMPORAL,
                )
            )
            return (
                eviction_fingerprint(result.recorder),
                [(a.t, a.size, a.admitted) for a in result.recorder.arrivals],
                [(s.t, s.density) for s in result.recorder.density_samples],
            )

        assert run() == run()

    def test_different_seeds_diverge(self):
        def run(seed):
            reset_object_ids()
            result = run_single_app_scenario(
                SingleAppSetup(capacity_gib=20, horizon_days=60.0, seed=seed)
            )
            return [(a.t, a.size) for a in result.recorder.arrivals]

        assert run(1) != run(2)


class TestClusterDeterminism:
    def test_cluster_placement_is_replayable(self):
        def run():
            reset_object_ids()
            cluster = BesteffsCluster(
                {f"n{i}": gib(2) for i in range(10)},
                placement=PlacementConfig(x=3, m=2),
                seed=9,
            )
            workload = LectureCaptureWorkload(seed=9)
            placements = []
            for obj in workload.arrivals(days(200)):
                decision, _result = cluster.offer(obj, obj.t_arrival)
                placements.append((obj.object_id, decision.node_id, decision.reason))
            return placements

        assert run() == run()

    def test_university_workload_is_replayable(self):
        def stream():
            reset_object_ids()
            config = UniversityConfig(courses=10, nodes=4)
            workload = UniversityWorkload(config=config, seed=3)
            return [
                (o.object_id, o.t_arrival, o.size, o.creator)
                for o in workload.arrivals(days(60))
            ]

        assert stream() == stream()

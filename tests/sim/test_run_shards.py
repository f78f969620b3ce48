"""The fleet runner: one spec per shard, typed results back in shard order.

Both fleets — the sec54 mega-university and the serving fleet — submit
their shards through :func:`repro.sim.parallel.run_shards`.  These tests
pin its contract at ``jobs`` 1 and 2: results come back typed and in
shard-id order, and a shard that raises fails the whole fleet with an
error naming that shard, so no caller ever folds a partial fleet.
"""

import pytest

from repro.errors import ReproError
from repro.experiments import sec54_mega
from repro.serve.loadgen import LoadGenSpec, run_loadgen
from repro.sim.parallel import RunSpec, run_shards
from repro.sim.shard import ShardRun

SEC54 = {"shards": 2, "nodes": 40, "node_capacity_gib": 2.0, "epoch_days": 5.0}
SERVE = {
    "workload": "university",
    "scale": 0.005,
    "clients": 2,
    "nodes": 2,
    "shards": 2,
    "max_requests": 60,
}


@pytest.mark.parametrize("jobs", [1, 2])
def test_results_are_typed_and_in_shard_order(jobs):
    runs = run_shards("sec54-shard", SEC54, 2, seed=11, horizon_days=10.0, jobs=jobs)
    assert [type(run) for run in runs] == [ShardRun, ShardRun]
    assert [run.shard for run in runs] == [0, 1]
    assert all(len(run.digests) == 2 for run in runs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_raising_serve_shard_names_itself(jobs):
    # Three shards over a two-shard spec: shard 2 is outside the fleet.
    with pytest.raises(ReproError, match=r"^serve-shard shard 2 failed: ServeError: "):
        run_shards("serve-shard", SERVE, 3, seed=7, horizon_days=10.0, jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_raising_sec54_shard_names_the_first_failure(jobs):
    # A horizon that is no multiple of the epoch fails every shard; the
    # error names the first.
    with pytest.raises(ReproError, match=r"^sec54-shard shard 0 failed: SimulationError: "):
        run_shards("sec54-shard", SEC54, 2, seed=11, horizon_days=12.0, jobs=jobs)


def test_mega_fleet_failure_leaves_no_partial_report():
    spec = RunSpec("sec54-mega", {**SEC54, "jobs": 2}, seed=11, horizon_days=12.0)
    with pytest.raises(ReproError, match="sec54-shard shard 0 failed"):
        sec54_mega.execute(spec)


def test_serving_fleet_failure_leaves_no_partial_report(monkeypatch):
    # Only shard 1 raises; shard 0's outcome must not reach a report.
    from repro.serve import sharded

    serve = sharded.run_shard_serve

    def shard_one_fails(spec, shard, routed=None):
        if shard == 1:
            raise RuntimeError("disk on fire")
        return serve(spec, shard, routed)

    monkeypatch.setattr(sharded, "run_shard_serve", shard_one_fails)
    spec = LoadGenSpec(seed=7, horizon_days=10.0, **SERVE)
    with pytest.raises(ReproError, match="serve-shard shard 1 failed: RuntimeError: disk on fire"):
        run_loadgen(spec)
    assert sharded._held_stream is None

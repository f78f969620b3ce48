"""Tests for the seeded load generator over the serving front-end."""

import pytest

from repro.core.obj import reset_object_ids
from repro.serve.loadgen import (
    LoadGenSpec,
    build_gateway,
    build_requests,
    render,
    run_loadgen,
)
from repro.serve.protocol import ServeError
from repro.serve.sharded import run_sharded
from repro.sim.workload.university import STUDENT_CREATOR
from repro.units import gib
from tests.oracles.percentile import nearest_rank


def small_spec(**kwargs):
    kwargs.setdefault("workload", "university")
    kwargs.setdefault("horizon_days", 10.0)
    kwargs.setdefault("scale", 0.005)
    kwargs.setdefault("clients", 4)
    kwargs.setdefault("nodes", 4)
    return LoadGenSpec(**kwargs)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workload": "netflix"},
            {"mode": "half-open"},
            {"clients": 0},
            {"nodes": 0},
            {"node_capacity_gib": 0.0},
            {"horizon_days": 0.0},
            {"max_requests": 0},
            {"open_burst": 0},
        ],
    )
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(ServeError):
            small_spec(**kwargs)

    def test_serve_config_mirrors_spec(self):
        spec = small_spec(
            queue_size=17, batch_max=5, rate_per_minute=3.0, rate_burst=2.0,
            coalesce=False,
        )
        config = spec.serve_config()
        assert config.queue_size == 17
        assert config.batch_max == 5
        assert config.rate_per_minute == 3.0
        assert config.rate_burst == 2.0
        assert config.coalesce is False


class TestDeploymentBuild:
    def test_build_gateway_sizes_cluster_from_spec(self):
        gateway = build_gateway(small_spec(nodes=3, node_capacity_gib=1.0))
        stats = gateway.cluster.stats(now=0.0)
        assert stats.nodes == 3
        assert stats.capacity_bytes == 3 * gib(1)

    def test_build_requests_mints_per_creator_with_ceilings(self):
        spec = small_spec(max_requests=80)
        gateway = build_gateway(spec)
        requests = build_requests(spec, gateway.realm)
        assert 0 < len(requests) <= 80
        by_creator = {r.capability.principal: r.capability for r in requests}
        assert len(by_creator) >= 2  # several campus creator classes
        student = by_creator.get(STUDENT_CREATOR)
        assert student is not None
        assert student.max_initial_importance == 0.5
        others = [
            c for p, c in by_creator.items() if p != STUDENT_CREATOR
        ]
        assert all(c.max_initial_importance == 1.0 for c in others)
        # Same creator reuses the lazily minted capability.
        tokens = {
            r.capability.principal: id(r.capability) for r in requests
        }
        for r in requests:
            assert id(r.capability) == tokens[r.capability.principal]

    def test_deadlines_are_relative_to_arrival(self):
        spec = small_spec(deadline_minutes=30.0, max_requests=20)
        requests = build_requests(spec, build_gateway(spec).realm)
        assert requests
        assert all(r.deadline == r.obj.t_arrival + 30.0 for r in requests)

    def test_no_deadline_by_default(self):
        spec = small_spec(max_requests=10)
        requests = build_requests(spec, build_gateway(spec).realm)
        assert all(r.deadline is None for r in requests)

    def test_downloads_workload_replays_mirror_copies(self):
        spec = small_spec(workload="downloads", max_requests=50)
        requests = build_requests(spec, build_gateway(spec).realm)
        assert requests
        assert all(r.obj.creator == "mirror" for r in requests)
        arrivals = [r.obj.t_arrival for r in requests]
        assert arrivals == sorted(arrivals)


class TestRunLoadgen:
    def test_closed_loop_accounts_for_every_request(self):
        report = run_loadgen(small_spec(max_requests=60))
        assert report.requests > 0
        assert sum(report.responses_by_status.values()) == report.requests
        assert len(report.ledger) == report.requests
        assert report.admitted == report.responses_by_status.get("admitted", 0)
        assert report.admitted > 0
        assert report.batches >= 1
        # Cluster stats reflect what the gateway admitted.
        assert report.cluster.placed == report.admitted

    def test_closed_loop_never_sheds_on_default_queue(self):
        report = run_loadgen(small_spec(max_requests=60))
        assert report.shed_by_reason == {}

    def test_open_loop_tiny_queue_sheds(self):
        report = run_loadgen(
            small_spec(
                workload="downloads", mode="open", clients=1, nodes=1,
                horizon_days=20.0, queue_size=8, batch_max=4, open_burst=16,
                max_requests=300, seed=3,
            )
        )
        assert report.shed_by_reason.get("queue-full", 0) > 0
        assert report.queue_peak <= 8
        assert sum(report.responses_by_status.values()) == report.requests

    def test_diurnal_workload_runs(self):
        report = run_loadgen(
            small_spec(workload="diurnal", horizon_days=2.0, max_requests=40)
        )
        assert report.requests > 0
        assert sum(report.responses_by_status.values()) == report.requests

    def test_latency_percentiles_are_ordered(self):
        report = run_loadgen(small_spec(max_requests=60))
        assert 0.0 <= report.latency_p50_s <= report.latency_p95_s
        assert report.latency_p95_s <= report.latency_p99_s
        assert report.ops_per_sec > 0


class TestPercentile:
    """The exact reference the report's bucketed quantiles are held to."""

    def test_empty_is_zero(self):
        assert nearest_rank([], 0.5) == 0.0

    def test_nearest_rank_endpoints(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert nearest_rank(values, 0.0) == 1.0
        assert nearest_rank(values, 0.5) == 3.0
        assert nearest_rank(values, 1.0) == 5.0


#: Report fields that are pure functions of the spec (no wall clock).
_DETERMINISTIC_FIELDS = (
    "spec", "requests", "responses_by_status", "shed_by_reason", "refusals",
    "batches", "queue_peak", "cluster", "ledger", "coalesced", "deduped",
    "spilled", "fairness_transactions", "retry_after_histogram", "per_shard",
)


class TestOneServingPath:
    def test_run_loadgen_is_the_one_shard_fleet(self):
        spec = small_spec(max_requests=60, rate_per_minute=0.05, rate_burst=2.0)
        assert spec.shards == 1
        reset_object_ids()  # the registry does this per run: must not matter
        via_loadgen = run_loadgen(spec)
        via_fleet = run_sharded(spec)
        for name in _DETERMINISTIC_FIELDS:
            assert getattr(via_loadgen, name) == getattr(via_fleet, name), name
        assert via_loadgen.ledger.canonical_bytes() == via_fleet.ledger.canonical_bytes()
        assert sum(via_loadgen.retry_after_histogram.values()) > 0
        assert via_loadgen.per_shard == ()
        assert via_loadgen.spilled == 0

    def test_one_shard_report_prints_no_shard_table(self):
        text = render(run_loadgen(small_spec(max_requests=40)))
        assert "shard" not in text and "spilled" not in text
        fleet = render(run_loadgen(small_spec(max_requests=40, shards=2)))
        assert "2 shard(s) (overflow spill)" in fleet
        assert "spilled-in" in fleet and "off-home routes" in fleet


class TestRenderReport:
    def test_render_mentions_the_essentials(self):
        report = run_loadgen(small_spec(max_requests=40))
        text = render(report)
        assert "university workload, closed loop" in text
        assert "admitted" in text
        assert "ledger sha256" in text
        assert report.ledger.canonical_sha256() in text

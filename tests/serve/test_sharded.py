"""Tests for the sharded multi-gateway runner: route → serve → merge."""

import gc
import weakref
from dataclasses import asdict

import pytest

from repro.core.obj import reset_object_ids
from repro.errors import ReproError
from repro.experiments.registry import csv_table, run_cli
from repro.obs import DURATION_BUCKETS
from repro.serve import sharded
from repro.serve.ledger import ENTRY_FIELDS, ServeLedger
from repro.serve.loadgen import (
    LoadGenSpec,
    build_gateway,
    csv_rows,
    retry_after_histogram,
    run_loadgen,
    shard_serve_seed,
)
from repro.serve.protocol import ServeError
from repro.serve.sharded import run_shard_serve, run_sharded
from repro.sim.parallel import RunSpec
from repro.units import MINUTES_PER_DAY, gib
from tests.oracles.percentile import nearest_rank


def flash_spec(**kwargs):
    kwargs.setdefault("workload", "flashcrowd")
    kwargs.setdefault("horizon_days", 10.0)
    kwargs.setdefault("scale", 0.02)
    kwargs.setdefault("burst_factor", 3.0)
    kwargs.setdefault("clients", 8)
    kwargs.setdefault("nodes", 4)
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("high_water", 4)
    kwargs.setdefault("window_minutes", 720.0)
    kwargs.setdefault("max_requests", 400)
    return LoadGenSpec(**kwargs)


def run_fresh(spec, **kwargs):
    reset_object_ids()
    return run_loadgen(spec, **kwargs)


class TestSeeds:
    def test_single_shard_keeps_base_seed(self):
        assert shard_serve_seed(42, 0, 1) == 42

    def test_shards_get_distinct_seeds(self):
        seeds = {shard_serve_seed(42, shard, 4) for shard in range(4)}
        assert len(seeds) == 4

    def test_seed_depends_on_shard_count(self):
        assert shard_serve_seed(42, 0, 2) != shard_serve_seed(42, 0, 4)


class TestBuildShardGateway:
    def test_node_names_keep_global_indexes(self):
        spec = flash_spec(nodes=4, shards=2)
        names = []
        for shard in range(2):
            gateway = build_gateway(spec, shard)
            names.extend(sorted(gateway.cluster.nodes))
        assert names == ["node-000", "node-001", "node-002", "node-003"]

    def test_budget_pro_rated_by_node_share(self):
        spec = flash_spec(nodes=4, shards=2)
        fleet = spec.budget_gib_days * gib(1) * MINUTES_PER_DAY
        budgets = [
            build_gateway(spec, shard).ledger.budget_per_period
            for shard in range(2)
        ]
        assert sum(budgets) == pytest.approx(fleet)
        single = build_gateway(flash_spec(nodes=4, shards=1))
        assert single.ledger.budget_per_period == pytest.approx(fleet)
        assert sharded.build_shard_gateway is build_gateway  # bench/trace.py's name

    def test_rejects_out_of_range_shard(self):
        with pytest.raises(ServeError):
            run_shard_serve(flash_spec(shards=2), 2)


class TestSingleShardParity:
    def test_one_shard_matches_legacy_gateway(self):
        # A standalone shard 0 of 1 is the whole run_loadgen run (whose
        # bytes tests/serve/test_determinism.py pins to the legacy path's).
        spec = flash_spec(workload="university", shards=1, max_requests=200)
        legacy = run_fresh(spec)
        reset_object_ids()
        outcome = run_shard_serve(spec, 0)
        assert (
            outcome.ledger.canonical_sha256() == legacy.ledger.canonical_sha256()
        )
        assert dict(outcome.responses_by_status) == dict(
            legacy.responses_by_status
        )


class TestMergedRun:
    def test_assigned_sums_to_requests(self):
        report = run_fresh(flash_spec())
        assert sum(row[2] for row in report.per_shard) == report.requests
        assert sum(report.responses_by_status.values()) == report.requests

    def test_flash_crowd_spills_and_coalesces(self):
        report = run_fresh(flash_spec())
        assert report.spilled > 0
        assert report.coalesced > 0
        assert isinstance(report.ledger, ServeLedger)

    def test_merged_rows_deterministic_across_runs(self):
        spec = flash_spec()
        assert csv_rows(run_fresh(spec)) == csv_rows(run_fresh(spec))

    def test_open_loop_deterministic_with_coalescing(self):
        spec = flash_spec(mode="open")
        a, b = run_fresh(spec), run_fresh(spec)
        assert a.coalesced > 0
        assert a.ledger.canonical_sha256() == b.ledger.canonical_sha256()

    def test_jobs_do_not_change_artifacts(self):
        spec = flash_spec()
        inline = run_fresh(spec, jobs=1)
        workers = run_fresh(spec, jobs=2)
        assert csv_rows(inline) == csv_rows(workers)
        assert (
            inline.ledger.canonical_sha256() == workers.ledger.canonical_sha256()
        )

    def test_never_spill_keeps_crowd_on_target(self):
        overflow = run_fresh(flash_spec())
        never = run_fresh(flash_spec(spill="never"))
        assert never.spilled == 0
        by_shard = {row[0]: row[2] for row in never.per_shard}
        # Without spill the burst stays on the target shard's keyspace.
        assert by_shard[0] > max(v for s, v in by_shard.items() if s != 0)
        assert overflow.spilled > 0


def count_calls(monkeypatch, name):
    """Count calls of ``repro.serve.sharded.<name>`` (its import site)."""
    original = getattr(sharded, name)
    results = []

    def counted(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(sharded, name, counted)
    return results


class TestStreamBuiltOnce:
    def test_four_shards_build_and_route_once(self, monkeypatch):
        built = count_calls(monkeypatch, "build_requests")
        planned = count_calls(monkeypatch, "plan_routes")
        report = run_fresh(flash_spec(nodes=8, shards=4), jobs=1)
        assert len(built) == len(planned) == 1
        assert len(built[0]) == report.requests
        assert len(report.per_shard) == 4

    def test_jobs_parity_bytes_and_rows(self):
        spec = flash_spec(nodes=8, shards=4)
        inline = run_fresh(spec, jobs=1)
        workers = run_fresh(spec, jobs=2)
        assert inline.ledger.canonical_bytes() == workers.ledger.canonical_bytes()
        assert csv_rows(inline) == csv_rows(workers)

    def test_stream_unreachable_after_run(self, monkeypatch):
        built = count_calls(monkeypatch, "build_requests")
        run_fresh(flash_spec())
        request = weakref.ref(built[0][0])
        built.clear()
        gc.collect()
        assert request() is None
        assert sharded._held_stream is None

    def test_stream_released_when_a_shard_fails(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("no gateway")

        run_fresh(flash_spec())  # a stream exists before the failing run
        monkeypatch.setattr(sharded, "build_gateway", broken)
        failed = "serve-shard shard 0 failed: RuntimeError: no gateway"
        with pytest.raises(ReproError, match=failed):
            run_fresh(flash_spec())
        assert sharded._held_stream is None

    def test_different_specs_get_their_own_streams(self, monkeypatch):
        built = count_calls(monkeypatch, "build_requests")
        small, large = flash_spec(max_requests=150), flash_spec(max_requests=300)
        first = run_fresh(small)
        second = run_fresh(large)
        assert [len(stream) for stream in built] == [150, 300]
        assert (first.requests, second.requests) == (150, 300)
        # ... and a rerun of the first spec reproduces it, not the second.
        assert csv_rows(run_fresh(small)) == csv_rows(first)

    def test_registry_entry_never_serves_another_specs_stream(self):
        # Two serve-shard specs back to back *without* run_sharded's
        # release in between: the held stream must be replaced, not reused.
        def shard_spec(max_requests):
            params = dict(asdict(flash_spec(max_requests=max_requests)), shard=0)
            seed, horizon = params.pop("seed"), params.pop("horizon_days")
            return RunSpec("serve-shard", params, seed=seed, horizon_days=horizon)

        try:
            small, _rendered = run_cli(shard_spec(150))
            large, _rendered = run_cli(shard_spec(300))
            assert len(sharded._held_stream[1][0]) == 300
        finally:
            sharded._release_stream()
        assert small.assigned < large.assigned <= 300

    def test_standalone_shard_matches_its_share_of_the_merged_run(self):
        spec = flash_spec()
        report = run_fresh(spec)
        outcomes = []
        for shard in range(spec.shards):
            reset_object_ids()  # what the registry does for every spec
            outcomes.append(run_shard_serve(spec, shard))
        assert sharded._held_stream is None  # standalone calls share nothing
        assert [o.assigned for o in outcomes] == [row[2] for row in report.per_shard]
        entries = sorted(entry for o in outcomes for entry in o.ledger)
        assert entries == list(report.ledger)


class TestShardSideSummaries:
    def test_retry_counts_sum_to_the_merged_ledgers_histogram(self):
        # Rate limiting is what hands out retry-after hints.
        spec = flash_spec(rate_per_minute=0.05, rate_burst=2.0)
        summed = {}
        for shard in range(spec.shards):
            reset_object_ids()
            outcome = run_shard_serve(spec, shard)
            for label, count in outcome.retry_after_histogram.items():
                summed[label] = summed.get(label, 0) + count
        report = run_fresh(spec)
        assert sum(summed.values()) > 0
        assert summed == report.retry_after_histogram
        assert summed == retry_after_histogram(report.ledger)  # the merged column

    def test_latency_buckets_count_served_requests(self):
        reset_object_ids()
        outcome = run_shard_serve(flash_spec(), 0)
        # One count per duration bucket plus the overflow bucket.
        assert len(outcome.latency_buckets) == len(DURATION_BUCKETS) + 1
        served = sum(outcome.latency_buckets)
        assert served > 0
        assert served == sum(outcome.responses_by_status.values()) - sum(
            outcome.shed_by_reason.values()
        )

    def test_fleet_quantile_pools_shards(self):
        # 1000 fast requests on one shard, 10 slow ones on another: the
        # fleet median is fast, whatever the slow shard's own median is.
        fast, slow = [2e-5] * 1000, [2e-2] * 10
        pooled = [
            a + b
            for a, b in zip(
                sharded._latency_buckets(fast), sharded._latency_buckets(slow)
            )
        ]
        p50 = sharded._latency_quantile(pooled, 2e-5, 2e-2, 0.50)
        p99 = sharded._latency_quantile(pooled, 2e-5, 2e-2, 0.99)
        p999 = sharded._latency_quantile(pooled, 2e-5, 2e-2, 0.999)
        assert p50 <= 5e-5 and p99 <= 5e-5
        assert 1e-2 < p999 <= 2e-2

    def test_bucketed_quantiles_within_one_bucket_of_exact(self):
        latencies = sorted(1e-6 * 1.07**i for i in range(200))
        counts = list(sharded._latency_buckets(latencies))
        assert sum(counts) == len(latencies)
        bounds = (0.0, *DURATION_BUCKETS, float("inf"))

        def bucket(value):
            return next(i for i, bound in enumerate(bounds) if value <= bound)

        for q in (0.5, 0.95, 0.99):
            exact = nearest_rank(latencies, q)
            estimate = sharded._latency_quantile(
                counts, latencies[0], latencies[-1], q
            )
            assert abs(bucket(estimate) - bucket(exact)) <= 1

    def test_single_shard_run_reports_ordered_quantiles(self):
        spec = flash_spec(workload="university", shards=1, max_requests=200)
        reset_object_ids()
        report = run_sharded(spec)
        assert 0.0 < report.latency_p50_s <= report.latency_p95_s
        assert report.latency_p95_s <= report.latency_p99_s
        assert report.latency_mean_s > 0.0


class TestRegistryAdapters:
    def test_serve_shard_experiment_runs(self):
        spec = RunSpec(
            experiment="serve-shard",
            params={
                "workload": "flashcrowd",
                "scale": 0.005,
                "clients": 4,
                "nodes": 4,
                "shards": 2,
                "shard": 1,
                "max_requests": 200,
                "high_water": 8,
                "window_minutes": 60.0,
            },
            seed=7,
            horizon_days=10.0,
        )
        outcome, rendered = run_cli(spec)
        assert outcome.shard == 1
        assert "serve shard 1/2" in rendered
        # The CSV is the shard's ledger: sim-time columns only.
        headers, rows = csv_table("serve-shard", outcome)
        assert headers == ENTRY_FIELDS
        assert rows == list(outcome.ledger) and rows

    def test_serve_flash_experiment_runs(self):
        spec = RunSpec(
            experiment="serve-flash",
            params={"nodes": 4, "shards": 2, "max_requests": 200},
            seed=7,
            horizon_days=10.0,
        )
        report, rendered = run_cli(spec)
        assert report.requests > 0
        assert "shard(s)" in rendered
        headers, rows = csv_table("serve-flash", report)
        assert headers == ("kind", "key", "value")
        assert rows == csv_rows(report)
        assert ("ledger", "sha256", report.ledger.canonical_sha256()) in rows

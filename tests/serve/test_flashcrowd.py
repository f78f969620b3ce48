"""The flash-crowd workload: a hot-key burst aimed at one shard."""

import pytest

from repro.besteffs.auth import CapabilityRealm
from repro.core.obj import reset_object_ids
from repro.serve.loadgen import (
    FLASH_CREATOR,
    LoadGenSpec,
    build_requests,
    flash_hot_ids,
    render,
    run_loadgen,
)
from repro.serve.protocol import ServeError
from repro.serve.router import home_shard
from repro.units import mib


def flash_spec(**kwargs):
    kwargs.setdefault("workload", "flashcrowd")
    kwargs.setdefault("horizon_days", 10.0)
    kwargs.setdefault("scale", 0.01)
    kwargs.setdefault("clients", 4)
    kwargs.setdefault("nodes", 4)
    kwargs.setdefault("seed", 11)
    return LoadGenSpec(**kwargs)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"shards": 8, "nodes": 4},
            {"spill": "maybe"},
            {"high_water": 0},
            {"window_minutes": 0.0},
            {"hot_objects": 0},
            {"burst_factor": -1.0},
            {"target_shard": 2, "shards": 2},
            {"target_shard": -1},
        ],
    )
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(ServeError):
            flash_spec(**kwargs)


class TestHotIds:
    def test_all_hot_ids_home_on_target(self):
        ids = flash_hot_ids(42, 4, 2, 8)
        assert len(ids) == 8
        assert all(home_shard(object_id, 4) == 2 for object_id in ids)

    def test_hot_ids_deterministic(self):
        assert flash_hot_ids(42, 4, 0, 8) == flash_hot_ids(42, 4, 0, 8)
        assert flash_hot_ids(42, 4, 0, 8) != flash_hot_ids(43, 4, 0, 8)


class TestStream:
    def build(self, **kwargs):
        spec = flash_spec(**kwargs)
        reset_object_ids()
        realm = CapabilityRealm(b"flash-tests")
        return spec, build_requests(spec, realm)

    def test_burst_rides_on_base_load(self):
        spec, requests = self.build(shards=2, hot_objects=4, burst_factor=2.0)
        burst = [r for r in requests if r.obj.creator == FLASH_CREATOR]
        base = [r for r in requests if r.obj.creator != FLASH_CREATOR]
        assert burst and base
        assert len(burst) == round(spec.burst_factor * len(base))
        hot = set(flash_hot_ids(spec.seed, 2, 0, 4))
        assert {r.obj.object_id for r in burst} <= hot
        assert all(r.obj.size == mib(4) for r in burst)

    def test_burst_lands_mid_horizon(self):
        spec, requests = self.build(shards=2)
        horizon = spec.horizon_days * 1440.0
        for r in requests:
            if r.obj.creator == FLASH_CREATOR:
                assert horizon / 3 <= r.obj.t_arrival <= 2 * horizon / 3

    def test_arrivals_sorted_and_capped(self):
        _, requests = self.build(shards=2, max_requests=50)
        assert len(requests) == 50
        times = [r.obj.t_arrival for r in requests]
        assert times == sorted(times)

    def test_request_ids_unique(self):
        _, requests = self.build(shards=2)
        ids = [r.request_id for r in requests]
        assert len(ids) == len(set(ids))

    def test_stream_deterministic(self):
        _, a = self.build(shards=2)
        _, b = self.build(shards=2)
        assert a == b  # frozen dataclasses: capability, payload, id, deadline


class TestRenderBreakdown:
    def report(self):
        reset_object_ids()
        return run_loadgen(
            flash_spec(
                shards=2,
                scale=0.02,
                burst_factor=3.0,
                clients=8,
                high_water=4,
                window_minutes=720.0,
                max_requests=400,
            )
        )

    def test_render_covers_every_status_and_shed_reason(self):
        report = self.report()
        text = render(report)
        # Every StoreStatus appears in the breakdown, zeros included.
        for status in (
            "admitted",
            "rejected-placement",
            "rejected-fairness",
            "shed-backpressure",
            "expired-in-queue",
            "rejected-auth",
        ):
            assert status in text
        assert "responses by status:" in text
        assert "2 shard(s) (overflow spill)" in text
        assert "coalesced" in text
        assert "ledger sha256" in text
        assert report.ledger.canonical_sha256() in text
        assert "shard  nodes  assigned  spilled-in" in text
        rows = [line.split() for line in text.splitlines()[-len(report.per_shard):]]
        assert [int(row[0]) for row in rows] == [s[0] for s in report.per_shard]
        assert "spilled" in text

    def test_retry_histogram_buckets_are_complete(self):
        report = self.report()
        for label in ("<=1m", "<=5m", "<=15m", "<=60m", "<=240m", "<=1440m", ">1440m"):
            assert label in report.retry_after_histogram

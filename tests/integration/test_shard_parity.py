"""Job count must never change the sec54 mega artifact (byte-for-byte).

Mirrors the trace-parity suite: each shard's stream is a pure function of
``(seed, shard, shards)`` and the parent merges epoch digests in shard-id
order, so running the shard specs inline (``jobs=1``) or in a worker pool
(``jobs=4``) must hash to identical rendered bytes and identical digest
rows.
"""

import hashlib

from repro.experiments import sec54_mega
from repro.experiments.registry import csv_table, run_cli
from repro.sim.parallel import RunSpec
from repro.sim.shard import run_shard, shard_seed, shard_slice

PARAMS = dict(
    nodes=400,
    shards=4,
    node_capacity_gib=2.0,
    epoch_days=5.0,
    horizon_days=20.0,
    seed=11,
)


def _mega(jobs):
    spec = RunSpec(
        experiment="sec54-mega",
        params={
            "nodes": PARAMS["nodes"],
            "shards": PARAMS["shards"],
            "node_capacity_gib": PARAMS["node_capacity_gib"],
            "epoch_days": PARAMS["epoch_days"],
            "jobs": jobs,
        },
        seed=PARAMS["seed"],
        horizon_days=PARAMS["horizon_days"],
    )
    result, rendered = run_cli(spec)
    return result, rendered, csv_table("sec54-mega", result)


class TestJobsParity:
    def test_rendered_sha256_identical_across_jobs(self):
        result1, rendered1, (headers1, rows1) = _mega(1)
        result4, rendered4, (headers4, rows4) = _mega(4)
        sha1 = hashlib.sha256(rendered1.encode()).hexdigest()
        sha4 = hashlib.sha256(rendered4.encode()).hexdigest()
        assert sha1 == sha4
        # The CSV rows (raw per-shard digests) match too, not just the
        # rounded render.
        assert headers1 == headers4
        assert rows1 == rows4
        assert result1.epochs == result4.epochs
        assert result1.shard_summary == result4.shard_summary

    def test_outcomes_merge_in_shard_id_order(self):
        _result, _rendered, (_headers, rows) = _mega(1)
        shards = [row[0] for row in rows]
        epochs = int(PARAMS["horizon_days"] / PARAMS["epoch_days"])
        expected = [s for s in range(PARAMS["shards"]) for _ in range(epochs)]
        assert shards == expected


class TestShardDeterminism:
    def test_shard_is_pure_function_of_coordinates(self):
        kwargs = dict(PARAMS, shard=2)
        assert run_shard(**kwargs) == run_shard(**kwargs)

    def test_shard_seeds_are_distinct_and_stable(self):
        seeds = [shard_seed(11, shard, 4) for shard in range(4)]
        assert len(set(seeds)) == 4
        # Pinned: derivation must never drift silently (it is part of the
        # artifact's identity).
        assert seeds == [shard_seed(11, shard, 4) for shard in range(4)]
        assert shard_seed(11, 0, 4) != shard_seed(12, 0, 4)
        assert shard_seed(11, 0, 4) != shard_seed(11, 0, 8)

    def test_shard_slices_partition_the_total(self):
        for total, shards in ((400, 4), (401, 4), (7, 3), (50_000, 8)):
            slices = [shard_slice(total, shards, s) for s in range(shards)]
            assert sum(count for _start, count in slices) == total
            cursor = 0
            for start, count in slices:
                assert start == cursor
                cursor += count


class TestMegaExperiment:
    def test_arrivals_equal_placed_plus_rejected(self):
        result, _rendered, _csv = _mega(1)
        last_epochs = [
            row for row in result.shard_rows
            if row[1] == int(PARAMS["horizon_days"] / PARAMS["epoch_days"])
        ]
        assert result.arrivals == sum(row[3] + row[4] for row in last_epochs)
        # The shards' own counts reach the summary: every arrival is one
        # event, plus one pump and one barrier per epoch.
        epochs = int(PARAMS["horizon_days"] / PARAMS["epoch_days"])
        for _shard, _nodes, _courses, arrivals, dispatched in result.shard_summary:
            assert dispatched == arrivals + 2 * epochs

    def test_registry_exposes_sec54(self):
        from repro.experiments import registry

        names = registry.names()
        assert "sec54-shard" in names
        assert "sec54-mega" in names

    def test_render_is_a_pure_function_of_the_result(self):
        result, rendered, _csv = _mega(1)
        assert sec54_mega.render(result) == rendered

"""Job count must never change trace-artifact *structure* (byte-for-byte).

The trace pipeline's acceptance bar, mirroring the audit-ledger parity
suite: span identity (ids, parents, labels, sim times, context tags) is
a pure function of the deterministic simulation, so ``--jobs 1`` and
``--jobs 4`` produce byte-identical merged trace artifacts on the
canonical (wall-clock-stripped) projection, and folding the same shard
set in any arrival order produces byte-identical archives outright.
"""

import hashlib
import random

import pytest

from repro.cli import main
from repro.obs.traceexport import TraceArchive, trace_id_for
from repro.obs.tracing import Tracer
from repro.sim.parallel import ObsOptions, RunSpec, run_specs

#: name -> (spec, span count, sha256 of ``TraceArchive.canonical_bytes()``),
#: recorded when a span exporter beside the tracer still cut the shards:
#: the tracer as the one span store must emit the same span ids, parents,
#: labels, sim times and tags.
PINNED = {
    "fig6": (
        RunSpec("fig6", seed=7, horizon_days=30.0, obs=ObsOptions(trace_export=True)),
        6,
        "254ee7a2a9003f5a054b930808c961a4dec5fd46918b45e743f51ef72bcafdd3",
    ),
    "sec53": (
        RunSpec("sec53", seed=11, horizon_days=20.0, obs=ObsOptions(trace_export=True)),
        1128,
        "9a4da4ec5e50d25331db023f56dbc1887863a27fc8268360b8f8e77a5aacee02",
    ),
}


def _sweep_specs():
    obs = ObsOptions(metrics=True, trace_export=True, trace_id="parity")
    return [
        RunSpec("fig6", seed=7, horizon_days=30.0, obs=obs),
        RunSpec("fig6", seed=7, horizon_days=30.0, replica=1, obs=obs),
        RunSpec("sec53", seed=11, horizon_days=20.0, obs=obs),
    ]


def _merged_for(jobs):
    outcomes = run_specs(_sweep_specs(), jobs=jobs)
    assert all(o.ok for o in outcomes)
    shards = [o.telemetry["trace"] for o in outcomes]
    assert all(len(s) > 0 for s in shards)
    return TraceArchive.merged(shards)


class TestPinnedTraces:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_canonical_sha256_is_the_parent_commits(self, jobs):
        outcomes = run_specs([spec for spec, _n, _sha in PINNED.values()], jobs=jobs)
        for (_spec, spans, sha256), outcome in zip(PINNED.values(), outcomes):
            assert outcome.ok, outcome.error
            archive = outcome.telemetry["trace"]
            assert (len(archive), archive.dropped_spans) == (spans, 0)
            assert hashlib.sha256(archive.canonical_bytes()).hexdigest() == sha256


class TestJobsParity:
    def test_canonical_bytes_identical_across_jobs(self):
        serial = _merged_for(1)
        pooled = _merged_for(4)
        assert serial.canonical_bytes() == pooled.canonical_bytes()
        # The full artifact differs only in the wall-clock measurement
        # fields — same record count, same shard set.
        assert len(serial) == len(pooled)
        assert serial.shards() == pooled.shards()

    def test_shard_structure_tagged_per_spec(self):
        merged = _merged_for(1)
        slugs = tuple(sorted(spec.slug() for spec in _sweep_specs()))
        assert merged.shards() == slugs
        assert all(r.trace_id == "parity" for r in merged.records)
        # One worker root span per shard.
        roots = merged.roots()
        assert tuple(sorted(r.shard for r in roots)) == slugs
        assert {r.label for r in roots} == {"worker.run"}


class TestMergeProperty:
    def _random_shards(self, rng):
        """Randomly shaped span forests across a random shard count."""
        shards = []
        for s in range(rng.randint(2, 6)):
            tracer = Tracer(trace_id=trace_id_for(["prop"]), spec=f"spec-{s}")

            def grow(depth):
                with tracer.span(f"L{depth}-{rng.randint(0, 3)}"):
                    for _ in range(rng.randint(0, 2) if depth < 3 else 0):
                        grow(depth + 1)

            for _ in range(rng.randint(1, 4)):
                grow(0)
            shards.append(tracer.archive())
        return shards

    def test_randomized_merge_is_order_and_grouping_free(self):
        rng = random.Random(20260807)
        for _trial in range(8):
            shards = self._random_shards(rng)
            reference = TraceArchive.merged(shards).write_bytes()
            # Any shuffle of arrival order folds to identical bytes.
            shuffled = list(shards)
            rng.shuffle(shuffled)
            assert TraceArchive.merged(shuffled).write_bytes() == reference
            # Any grouping too: fold a random split pairwise.
            cut = rng.randint(1, len(shards) - 1)
            left = TraceArchive.merged(shards[:cut])
            right = TraceArchive.merged(shards[cut:])
            left.merge(right)
            assert left.write_bytes() == reference


class TestCliTraceParity:
    def test_merged_jsonl_canonical_identical_across_jobs(self, tmp_path, capsys):
        canonical = {}
        for jobs in (1, 4):
            out_dir = tmp_path / f"jobs{jobs}"
            code = main(
                [
                    "sweep", "fig6",
                    "--seeds", "2",
                    "--horizon-days", "20",
                    "--jobs", str(jobs),
                    "--trace-out", str(out_dir / "trace.jsonl"),
                ]
            )
            capsys.readouterr()
            assert code == 0
            merged = TraceArchive.read_jsonl(out_dir / "trace-merged.jsonl")
            canonical[jobs] = merged.canonical_bytes()
        assert canonical[1] == canonical[4]

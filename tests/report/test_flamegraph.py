"""Unit tests for the critical-path analysis and the collapsed-stack export."""

import re

import pytest

from repro import obs
from repro.cli import main
from repro.obs.traceexport import SpanRecord, TraceArchive
from repro.report.flamegraph import (
    collapsed_stacks,
    critical_path,
    load_trace_archives,
    render_critical_path,
)

#: One folded-stack line: ``label;label;... <self_us>``.
_FOLDED_LINE = re.compile(r"^[A-Za-z0-9_.-]+(;[A-Za-z0-9_.-]+)* \d+$")


def _rec(seq, span_id, parent_id, label, wall_us, *, shard, t_start_us=0,
         sim_time=None):
    return SpanRecord(
        seq=seq,
        span_id=span_id,
        parent_id=parent_id,
        label=label,
        sim_time=sim_time,
        t_start_us=t_start_us,
        wall_us=wall_us,
        trace_id="t",
        spec=shard,
        shard=shard,
    )


def _synthetic_archive():
    """Two shards with hand-computable wall math.

    Shard A (100ms root):       Shard B (40ms root):
      worker.run 100ms            worker.run 40ms (self 40ms)
        fast 20ms (self 20)
        slow 70ms
          leaf 50ms (self 50)
    Straggler: A.  Critical path: worker.run -> slow -> leaf.
    Exclusive: leaf 50, worker.run 10+40, slow 20, fast 20.
    """
    a = [
        _rec(0, 2, 1, "fast", 20_000, shard="A", t_start_us=0),
        _rec(1, 4, 3, "leaf", 50_000, shard="A", t_start_us=30_000, sim_time=9.0),
        _rec(2, 3, 1, "slow", 70_000, shard="A", t_start_us=20_000),
        _rec(3, 1, None, "worker.run", 100_000, shard="A"),
    ]
    b = [_rec(0, 1, None, "worker.run", 40_000, shard="B")]
    archive = TraceArchive(trace_id="t")
    for r in a + b:
        archive._records.append(r)
    return archive


class TestCriticalPath:
    def test_straggler_and_total(self):
        result = critical_path(_synthetic_archive())
        assert result.straggler == "A"
        assert result.total_us == 100_000
        assert result.shard_walls == (("A", 100_000), ("B", 40_000))
        assert result.span_count == 5

    def test_path_descends_the_heaviest_children(self):
        result = critical_path(_synthetic_archive())
        assert [s.label for s in result.path] == ["worker.run", "slow", "leaf"]
        assert [s.wall_us for s in result.path] == [100_000, 70_000, 50_000]
        # Exclusive time = wall minus direct children's wall.
        assert [s.self_us for s in result.path] == [10_000, 20_000, 50_000]

    def test_top_spans_aggregate_exclusive_time_by_label(self):
        result = critical_path(_synthetic_archive(), top_k=2)
        # Ties (50ms each) break alphabetically; worker.run's exclusive
        # time sums across shards: 10ms (A) + 40ms (B).
        assert result.top_spans == (
            ("leaf", 50_000, 1),
            ("worker.run", 50_000, 2),
        )

    def test_empty_archive(self):
        result = critical_path(TraceArchive())
        assert result.total_us == 0
        assert result.straggler == ""
        assert result.path == ()
        assert "0 shards" in render_critical_path(result)

    def test_render_mentions_path_and_shares(self):
        text = render_critical_path(critical_path(_synthetic_archive()))
        assert "straggler: A" in text
        assert "100.000ms" in text
        assert "slow: 70.000ms (70.0% of sweep" in text
        # Top-span shares are over aggregate work (140ms), never >100%.
        assert "worker.run  self=50.000ms (35.7%) n=2" in text

    def test_dropped_spans_noted(self):
        archive = _synthetic_archive()
        archive.dropped_spans = 7
        text = render_critical_path(critical_path(archive))
        assert "7 spans dropped" in text


def _one_shard(archive, shard):
    out = TraceArchive(trace_id=archive.trace_id)
    out._records.extend(r for r in archive.records if r.shard == shard)
    return out


def _folded(text):
    return {stack: int(us) for stack, us in (line.rsplit(" ", 1) for line in text.splitlines())}


class TestCollapsedStacks:
    def test_lines_are_folded_format_and_sorted(self):
        lines = collapsed_stacks(_synthetic_archive()).splitlines()
        assert lines
        assert all(_FOLDED_LINE.match(line) for line in lines)
        assert lines == sorted(lines)

    def test_stacks_merge_across_shards_with_summed_self_time(self):
        assert _folded(collapsed_stacks(_synthetic_archive())) == {
            "worker.run": 50_000,  # self 10ms (A) + 40ms (B)
            "worker.run;fast": 20_000,
            "worker.run;slow": 20_000,
            "worker.run;slow;leaf": 50_000,
        }

    def test_self_time_per_root_sums_to_the_shard_wall(self):
        archive = _synthetic_archive()
        for shard, wall in critical_path(archive).shard_walls:
            folded = _folded(collapsed_stacks(_one_shard(archive, shard)))
            assert sum(folded.values()) == wall, shard

    def test_empty_archive(self):
        assert collapsed_stacks(TraceArchive()) == ""


class TestCollapsedStacksFromASweep:
    @pytest.fixture(autouse=True)
    def _fresh_obs(self):
        obs.reset()
        yield
        obs.reset()

    def test_stack_keys_do_not_depend_on_jobs(self, tmp_path, capsys):
        keys = {}
        for jobs in ("1", "2"):
            trace = tmp_path / jobs / "trace.jsonl"
            assert main([
                "sweep", "fig6", "--seeds", "2", "--horizon-days", "10",
                "--jobs", jobs, "--trace-out", str(trace),
            ]) == 0
            merged = load_trace_archives([str(tmp_path / jobs / "trace-merged.jsonl")])
            # Values are wall-clock; only the stacks are deterministic.
            keys[jobs] = set(_folded(collapsed_stacks(merged)))
        capsys.readouterr()
        assert keys["1"] == keys["2"]
        assert "worker.run;spec.fig6;runner.run_single_store;engine.run" in keys["1"]

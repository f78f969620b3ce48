"""Unit tests for cross-process span export (:mod:`repro.obs.traceexport`)."""

import dataclasses
import random

from repro.obs.traceexport import TraceArchive, is_trace_file, trace_id_for
from repro.obs.tracing import DEFAULT_MAX_SPANS, Tracer


def _drive(tracer):
    """A tiny deterministic span tree: root -> (child, child -> leaf)."""
    with tracer.span("root", sim_time=0.0):
        with tracer.span("child"):
            pass
        with tracer.span("child"):
            with tracer.span("leaf", sim_time=5.0):
                pass


class TestTraceId:
    def test_order_free(self):
        assert trace_id_for(["b", "a"]) == trace_id_for(["a", "b"])

    def test_distinct_inputs_distinct_ids(self):
        assert trace_id_for(["a"]) != trace_id_for(["b"])
        assert trace_id_for(["a"]) != trace_id_for(["a"], salt="x")

    def test_shape(self):
        tid = trace_id_for(["fig6"])
        assert len(tid) == 16
        assert int(tid, 16) >= 0


class TestSpanExporter:
    """Span export: the tracer's own records, cut as one shard."""

    def test_ids_and_parenting_follow_the_tree(self):
        tracer = Tracer(trace_id="t", spec="s")
        _drive(tracer)
        records = [r.to_dict() for r in tracer.archive()]
        by_label = {}
        for r in records:
            by_label.setdefault(r["label"], []).append(r)
        (root,) = by_label["root"]
        (leaf,) = by_label["leaf"]
        assert root["parent_id"] is None
        assert leaf["parent_id"] == by_label["child"][1]["span_id"]
        assert all(c["parent_id"] == root["span_id"] for c in by_label["child"])
        # Spans export on *close*, so seq is the close order...
        assert [r["label"] for r in records] == ["child", "leaf", "child", "root"]
        # ...while span ids are assigned in open order, root first.
        assert root["span_id"] < min(c["span_id"] for c in by_label["child"])

    def test_context_tags_on_every_record(self):
        tracer = Tracer(trace_id="abc", spec="fig6-s1")
        _drive(tracer)
        for r in tracer.archive():
            assert r.trace_id == "abc"
            assert r.spec == r.shard == "fig6-s1"

    def test_cap_counts_dropped_spans(self):
        tracer = Tracer(trace_id="t", spec="s", max_spans=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        archive = tracer.archive()
        assert len(archive) == 2
        assert archive.dropped_spans == tracer.dropped_spans == 3

    def test_default_cap_is_generous(self):
        assert Tracer(trace_id="t").max_spans == DEFAULT_MAX_SPANS


class TestTraceArchive:
    def _shard(self, spec, n=4):
        tracer = Tracer(trace_id="t", spec=spec)
        for i in range(n):
            with tracer.span(f"work-{i}", sim_time=float(i)):
                pass
        return tracer.archive()

    def test_jsonl_round_trip(self, tmp_path):
        archive = self._shard("fig6")
        path = tmp_path / "trace.jsonl"
        archive.write_jsonl(path)
        back = TraceArchive.read_jsonl(path)
        assert back == archive
        assert is_trace_file(path)

    def test_is_trace_file_rejects_other_jsonl(self, tmp_path):
        other = tmp_path / "audit.jsonl"
        other.write_text('{"kind": "audit-header"}\n')
        assert not is_trace_file(other)
        assert not is_trace_file(tmp_path / "missing.jsonl")

    def test_merge_is_shuffle_order_invariant(self):
        shards = [self._shard(f"spec-{i}") for i in range(6)]
        reference = TraceArchive.merged(shards).write_bytes()
        rng = random.Random(0xC0FFEE)
        for _ in range(10):
            shuffled = list(shards)
            rng.shuffle(shuffled)
            assert TraceArchive.merged(shuffled).write_bytes() == reference

    def test_merge_sums_dropped_spans(self):
        a = self._shard("a")
        a.dropped_spans = 2
        b = self._shard("b")
        b.dropped_spans = 3
        assert TraceArchive.merged([a, b]).dropped_spans == 5

    def test_canonical_bytes_strips_wall_fields_only(self):
        archive = self._shard("fig6")
        twin_records = [
            dataclasses.replace(r, t_start_us=r.t_start_us + 7, wall_us=r.wall_us + 7)
            for r in archive
        ]
        twin = TraceArchive(trace_id=archive.trace_id, _records=twin_records)
        assert twin.canonical_bytes() == archive.canonical_bytes()
        assert twin.write_bytes() != archive.write_bytes()

    def test_tree_accessors(self):
        tracer = Tracer(trace_id="t", spec="s")
        _drive(tracer)
        archive = tracer.archive()
        (root,) = archive.roots()
        assert root.label == "root"
        kids = archive.children_of(root)
        assert [k.label for k in kids] == ["child", "child"]
        assert archive.shards() == ("s",)
        assert archive.specs() == ("s",)


class TestStateIntegration:
    def test_export_payload_carries_trace_and_drop_counter(self):
        from repro import obs

        obs.enable(tracer=Tracer(trace_id="t", spec="s", max_spans=1))
        with obs.STATE.tracer.span("a"):
            pass
        with obs.STATE.tracer.span("b"):
            pass
        payload = obs.export_payload("unit", trace=True)
        assert payload["trace"].trace_id == "t"
        assert len(payload["trace"]) == 1
        # One drop counter: the payload's is the shard header's.
        assert payload["spans_dropped"] == payload["trace"].dropped_spans == 1

    def test_export_payload_without_exporter_has_no_trace_key(self):
        from repro import obs

        obs.enable()
        with obs.STATE.tracer.span("a"):
            pass
        payload = obs.export_payload("unit")
        assert "trace" not in payload
        assert payload["spans_dropped"] == 0

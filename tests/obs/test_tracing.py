"""Unit tests for span tracing."""

from repro.obs.tracing import Tracer, render_aggregates, span_forest


class TestSpans:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer(spec="s")
        with tracer.span("outer", sim_time=0.0):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        ((roots, children),) = span_forest(tracer.records).values()
        (root,) = roots
        assert root.label == "outer"
        assert root.sim_time == 0.0
        kids = children[root.span_id]
        assert [c.label for c in kids] == ["inner", "inner"]
        assert root.wall_us >= sum(c.wall_us for c in kids) >= 0

    def test_aggregates_count_every_occurrence(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("work"):
                pass
        stats = tracer.stats("work")
        assert stats is not None
        assert stats.count == 3
        assert stats.total_s >= stats.max_s >= stats.min_s >= 0.0
        agg = tracer.aggregates()["work"]
        assert agg["count"] == 3.0
        assert agg["mean_s"] == stats.total_s / 3

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        try:
            with tracer.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        assert tracer.stats("boom").count == 1
        assert tracer.records[0].wall_us >= 0

    def test_tree_bound_keeps_aggregates_exact(self):
        tracer = Tracer(max_spans=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.records) == 2
        assert tracer.dropped_spans == 3
        assert tracer.stats("s").count == 5

    def test_render_mentions_labels_and_counts(self):
        tracer = Tracer()
        with tracer.span("engine.run", sim_time=42.0):
            pass
        text = tracer.render()
        assert "engine.run" in text
        assert "n=1" in text
        assert "@t=42m" in text

    def test_reset(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.reset()
        assert tracer.records == ()
        assert tracer.aggregates() == {}

    def test_reset_clears_exporter_and_ids(self):
        tracer = Tracer(max_spans=1)
        for _ in range(2):
            with tracer.span("s"):
                pass
        tracer.reset()
        # Nothing is left to export, drops included...
        assert (tracer.archive().records, tracer.dropped_spans) == ((), 0)
        with tracer.span("fresh"):
            pass
        # Span ids restart after a reset, like everything else.
        assert [(r.span_id, r.seq) for r in tracer.records] == [(1, 0)]


class TestRenderTree:
    def test_children_are_limited_per_node(self):
        tracer = Tracer()
        with tracer.span("parent"):
            for _ in range(25):
                with tracer.span("child"):
                    pass
        lines = tracer.render_tree(max_children=20).splitlines()
        assert lines[0] == "span tree:"
        assert lines[1].startswith("  parent: ")
        assert sum(line.startswith("    child: ") for line in lines) == 20
        assert "    ... 5 more" in lines
        assert lines[-1] == "  (5 of 26 recorded spans not shown)"

    def test_depth_is_limited_and_counted(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        lines = tracer.render_tree(max_depth=1).splitlines()
        assert [line.split(":")[0] for line in lines[1:3]] == ["  a", "    b"]
        assert lines[-1] == "  (1 of 3 recorded spans not shown)"

    def test_spans_whose_parent_was_dropped_draw_as_roots(self):
        tracer = Tracer(max_spans=2)
        with tracer.span("root"):
            with tracer.span("kept"):
                pass
            with tracer.span("kept"):
                pass
        text = tracer.render_tree()
        assert [line.split(":")[0] for line in text.splitlines()[1:3]] == [
            "  kept", "  kept",
        ]
        assert "dropped_spans=1" in text

    def test_empty_tracer_renders_nothing(self):
        assert Tracer().render_tree() == ""


class TestDroppedSpans:
    def test_render_surfaces_the_drop_counter(self):
        tracer = Tracer(max_spans=1)
        for _ in range(4):
            with tracer.span("s"):
                pass
        assert tracer.dropped_spans == 3
        text = tracer.render()
        assert "dropped_spans=3" in text
        # Aggregates stay exact; only the records are bounded.
        assert tracer.stats("s").count == 4

    def test_render_is_silent_when_nothing_dropped(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        assert "dropped_spans" not in tracer.render()


class TestZeroObservationGuards:
    def test_render_aggregates_never_prints_inf(self):
        # A zero-observation label can reach render via merged payloads.
        payload = {
            "ok": {"count": 2.0, "total_s": 1.0, "mean_s": 0.5,
                   "min_s": 0.25, "max_s": 0.75},
            "empty": {"count": 0.0, "total_s": 0.0, "mean_s": 0.0,
                      "min_s": float("inf"), "max_s": 0.0},
        }
        text = render_aggregates(payload)
        assert "inf" not in text
        assert "ok" in text and "empty" in text

    def test_render_aggregates_tolerates_missing_keys(self):
        text = render_aggregates({"bare": {"count": 1.0}})
        assert "inf" not in text
        assert "bare" in text

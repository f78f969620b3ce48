"""Unit tests for the metrics registry."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_cumulative,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("requests_total", labelnames=("outcome",))
        assert c.value(outcome="ok") == 0.0
        c.inc(outcome="ok")
        c.inc(2.5, outcome="ok")
        assert c.value(outcome="ok") == 3.5
        assert c.value(outcome="err") == 0.0

    def test_cannot_decrease(self):
        c = Counter("requests_total")
        with pytest.raises(ObservabilityError):
            c.inc(-1.0)

    def test_label_mismatch_raises(self):
        c = Counter("requests_total", labelnames=("outcome",))
        with pytest.raises(ObservabilityError):
            c.inc()  # missing label
        with pytest.raises(ObservabilityError):
            c.inc(outcome="ok", extra="nope")
        with pytest.raises(ObservabilityError):
            c.inc(wrong="ok")

    def test_invalid_names_rejected(self):
        with pytest.raises(ObservabilityError):
            Counter("bad name")
        with pytest.raises(ObservabilityError):
            Counter("ok_name", labelnames=("bad-label",))


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("queue_depth")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value() == 12.0

    def test_labelled_series_are_independent(self):
        g = Gauge("occupancy", labelnames=("unit",))
        g.set(0.5, unit="a")
        g.set(0.9, unit="b")
        assert g.value(unit="a") == 0.5
        assert g.value(unit="b") == 0.9


class TestHistogram:
    def test_snapshot_summary(self):
        h = Histogram("depth", buckets=(1.0, 5.0, 10.0))
        for v in (0, 1, 2, 7, 20):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == 30.0
        assert snap["mean"] == 6.0
        assert snap["min"] == 0.0
        assert snap["max"] == 20.0
        # cumulative bucket counts: <=1 -> 2, <=5 -> 3, <=10 -> 4, +Inf -> 5
        assert snap["buckets"] == {"1.0": 2, "5.0": 3, "10.0": 4, "+Inf": 5}

    def test_empty_snapshot(self):
        h = Histogram("depth")
        assert h.snapshot()["count"] == 0

    def test_needs_buckets(self):
        with pytest.raises(ObservabilityError):
            Histogram("depth", buckets=())
        with pytest.raises(ObservabilityError):
            Histogram("depth", buckets=(1.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total", "help", ("unit",))
        b = reg.counter("hits_total", "other help ignored", ("unit",))
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ObservabilityError):
            reg.gauge("x_total")
        with pytest.raises(ObservabilityError):
            reg.histogram("x_total")

    def test_label_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=("a",))
        with pytest.raises(ObservabilityError):
            reg.counter("x_total", labelnames=("b",))

    def test_bucket_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0))
        reg.histogram("h")  # no buckets specified: reuses existing
        with pytest.raises(ObservabilityError):
            reg.histogram("h", buckets=(1.0, 3.0))

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc()
        reg.reset()
        assert len(reg) == 0
        assert reg.get("x_total") is None

    def test_to_dict_schema(self):
        reg = MetricsRegistry()
        reg.counter("events_total", "Events.", ("label",)).inc(3, label="arrival")
        reg.gauge("depth", "Depth.").set(7)
        reg.histogram("scan", "Scan.", ("unit",), buckets=COUNT_BUCKETS).observe(
            4, unit="d0"
        )
        out = reg.to_dict()
        assert set(out) == {"events_total", "depth", "scan"}
        counter = out["events_total"]
        assert counter["type"] == "counter"
        assert counter["labelnames"] == ["label"]
        assert counter["series"] == [{"labels": {"label": "arrival"}, "value": 3.0}]
        gauge = out["depth"]
        assert gauge["series"] == [{"labels": {}, "value": 7.0}]
        hist = out["scan"]
        assert hist["type"] == "histogram"
        (series,) = hist["series"]
        assert series["labels"] == {"unit": "d0"}
        assert series["count"] == 1
        assert series["mean"] == 4.0
        assert series["buckets"]["+Inf"] == 1

    def test_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("events_total", "Events dispatched.", ("label",)).inc(
            2, label="arrival"
        )
        reg.histogram("scan", buckets=(1.0, 5.0)).observe(3.0)
        text = reg.to_prometheus_text()
        assert "# HELP events_total Events dispatched." in text
        assert "# TYPE events_total counter" in text
        assert 'events_total{label="arrival"} 2.0' in text
        assert "# TYPE scan histogram" in text
        assert 'scan_bucket{le="1.0"} 0' in text
        assert 'scan_bucket{le="5.0"} 1' in text
        assert 'scan_bucket{le="+Inf"} 1' in text
        assert "scan_sum 3.0" in text
        assert "scan_count 1" in text

    def test_prometheus_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labelnames=("name",)).inc(name='with"quote')
        text = reg.to_prometheus_text()
        assert r'c_total{name="with\"quote"} 1.0' in text


class TestHistogramQuantiles:
    def _hist(self):
        h = Histogram("latency", buckets=(1.0, 2.0, 4.0, 8.0))
        for v in (0.5, 1.5, 1.5, 3.0, 7.0, 7.5):
            h.observe(v)
        return h

    def test_extremes_are_exact(self):
        h = self._hist()
        assert h.quantile(0.0) == 0.5
        assert h.quantile(1.0) == 7.5

    def test_median_interpolates_within_its_bucket(self):
        h = self._hist()
        p50 = h.quantile(0.5)
        # Three of six samples are <= 1.5; the median lives in (1.0, 2.0].
        assert 1.0 <= p50 <= 2.0

    def test_upper_quantiles_clamp_to_observed_max(self):
        h = self._hist()
        assert h.quantile(0.99) <= 7.5
        assert h.quantile(0.95) <= 7.5

    def test_empty_or_unknown_series_returns_zero(self):
        h = Histogram("latency", labelnames=("unit",))
        assert h.quantile(0.5, unit="missing") == 0.0

    def test_invalid_q_rejected(self):
        h = self._hist()
        with pytest.raises(ObservabilityError):
            h.quantile(-0.1)
        with pytest.raises(ObservabilityError):
            h.quantile(1.1)

    def test_labelled_series_are_independent(self):
        h = Histogram("latency", labelnames=("unit",), buckets=(1.0, 10.0))
        h.observe(0.5, unit="fast")
        h.observe(9.0, unit="slow")
        assert h.quantile(0.5, unit="fast") <= 1.0
        assert h.quantile(0.5, unit="slow") > 1.0


class TestQuantileFromCumulative:
    def test_interpolates_linearly_in_target_bucket(self):
        # 10 samples <= 1.0, 10 more in (1.0, 2.0]: p75 is midway up bucket 2.
        value = quantile_from_cumulative(
            [1.0, 2.0], [10, 20], 20, 0.0, 2.0, 0.75
        )
        assert value == pytest.approx(1.5)

    def test_empty_total_returns_zero(self):
        assert quantile_from_cumulative([1.0], [0], 0, 0.0, 0.0, 0.5) == 0.0

    def test_estimate_clamps_into_observed_range(self):
        value = quantile_from_cumulative([10.0], [5], 5, 2.0, 3.0, 0.99)
        assert 2.0 <= value <= 3.0

    def test_invalid_q_rejected(self):
        with pytest.raises(ObservabilityError):
            quantile_from_cumulative([1.0], [1], 1, 0.0, 1.0, 2.0)


class TestPrometheusExposition:
    """Exposition-format guarantees the .prom export relies on."""

    def test_label_values_escape_backslash_and_newline(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labelnames=("path",)).inc(path="a\\b\nc")
        text = reg.to_prometheus_text()
        assert r'c_total{path="a\\b\nc"} 1.0' in text

    def test_every_exposed_metric_name_is_valid(self):
        import re

        name_re = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
        reg = MetricsRegistry()
        reg.counter("events_total", "E.", ("label",)).inc(label="arrival")
        reg.gauge("queue_depth", "Q.").set(1)
        reg.histogram("scan", "S.", ("unit",), buckets=(1.0,)).observe(0.5, unit="d0")
        for line in reg.to_prometheus_text().splitlines():
            if not line or line.startswith("#"):
                continue
            metric_name = re.split(r"[{ ]", line, maxsplit=1)[0]
            assert name_re.match(metric_name), line

    def test_registry_rejects_invalid_names_up_front(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.counter("bad name")
        with pytest.raises(ObservabilityError):
            reg.gauge("ok", labelnames=("bad-label",))


class TestRegistryMerge:
    """Folding worker registries into the parent after a parallel run."""

    def test_counter_values_sum_per_labelled_series(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        mine.counter("events_total", "E.", ("kind",)).inc(3, kind="arrival")
        theirs.counter("events_total", "E.", ("kind",)).inc(2, kind="arrival")
        theirs.counter("events_total", "E.", ("kind",)).inc(5, kind="eviction")
        mine.merge(theirs)
        merged = mine.get("events_total")
        assert merged.value(kind="arrival") == 5.0
        assert merged.value(kind="eviction") == 5.0  # theirs-only series adopted

    def test_gauge_takes_last_writer(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        mine.gauge("queue_depth", "Q.").set(3.0)
        theirs.gauge("queue_depth", "Q.").set(7.0)
        mine.merge(theirs)
        assert mine.get("queue_depth").value() == 7.0

    def test_gauge_series_absent_from_other_survive(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        mine.gauge("occupancy", "O.", ("unit",)).set(0.5, unit="a")
        theirs.gauge("occupancy", "O.", ("unit",)).set(0.9, unit="b")
        mine.merge(theirs)
        merged = mine.get("occupancy")
        assert merged.value(unit="a") == 0.5
        assert merged.value(unit="b") == 0.9

    def test_histogram_adds_bucketwise(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        bounds = (1.0, 10.0)
        mine.histogram("lat", "L.", buckets=bounds).observe(0.5)
        mine.histogram("lat", "L.", buckets=bounds).observe(5.0)
        theirs.histogram("lat", "L.", buckets=bounds).observe(0.6)
        theirs.histogram("lat", "L.", buckets=bounds).observe(50.0)
        mine.merge(theirs)
        snap = mine.get("lat").snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(56.1)
        assert snap["min"] == 0.5
        assert snap["max"] == 50.0
        # Cumulative bucket counts add bucket-wise: two <=1.0, one <=10.0.
        assert snap["buckets"][repr(1.0)] == 2
        assert snap["buckets"][repr(10.0)] == 3
        assert snap["buckets"]["+Inf"] == 4

    def test_metrics_unknown_to_self_are_adopted(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        theirs.counter("worker_only_total", "W.").inc(4)
        theirs.histogram("worker_hist", "H.", buckets=(1.0,)).observe(0.5)
        mine.merge(theirs)
        assert mine.get("worker_only_total").value() == 4.0
        assert mine.get("worker_hist").snapshot()["count"] == 1

    def test_merge_returns_self_for_fold_chaining(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        assert mine.merge(theirs) is mine

    def test_histogram_bucket_layout_mismatch_raises(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        mine.histogram("lat", "L.", buckets=(1.0, 10.0)).observe(0.5)
        theirs.histogram("lat", "L.", buckets=(2.0, 20.0)).observe(0.5)
        with pytest.raises(ObservabilityError, match="different buckets"):
            mine.merge(theirs)

    def test_type_mismatch_raises(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        mine.counter("depth", "D.").inc()
        theirs.gauge("depth", "D.").set(1.0)
        with pytest.raises(ObservabilityError):
            mine.merge(theirs)


class TestRegistryFromDict:
    """Worker payloads rebuild into live registries (the merge transport)."""

    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("events_total", "E.", ("kind",)).inc(3, kind="arrival")
        reg.gauge("density", "D.").set(0.83)
        hist = reg.histogram("scan_s", "S.", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(7.0)
        return reg

    def test_round_trip_re_exports_identical_payload(self):
        payload = self._populated().to_dict()
        rebuilt = MetricsRegistry.from_dict(payload)
        assert rebuilt.to_dict() == payload

    def test_rebuilt_registries_merge_like_live_ones(self):
        # Serialise two "workers", rebuild, fold: counters sum and the
        # histogram quantile machinery still works on de-cumulated buckets.
        a = MetricsRegistry.from_dict(self._populated().to_dict())
        b = MetricsRegistry.from_dict(self._populated().to_dict())
        a.merge(b)
        assert a.get("events_total").value(kind="arrival") == 6.0
        snap = a.get("scan_s").snapshot()
        assert snap["count"] == 6
        assert snap["min"] == 0.05
        assert a.get("scan_s").quantile(1.0) == 7.0

    def test_unknown_metric_type_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown type"):
            MetricsRegistry.from_dict(
                {"weird": {"type": "summary", "help": "", "labelnames": [], "series": []}}
            )

    def test_histogram_without_buckets_names_the_metric(self):
        payload = self._populated().to_dict()
        del payload["scan_s"]["buckets"]
        with pytest.raises(ObservabilityError, match="'scan_s' has no buckets"):
            MetricsRegistry.from_dict(payload)

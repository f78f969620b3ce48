"""Render a metrics-registry summary as a text table.

This is the ``repro.report`` face of :mod:`repro.obs`: after an
instrumented experiment the CLI prints one row per metric series —
counters and gauges show their value, histograms show count / mean /
p50 / p95 / p99 / max — so a run's behaviour is visible without opening
the JSON export.  When a :class:`~repro.obs.TimeSeriesCollector` is
passed, each row additionally gets a block-character sparkline of the
series' collected history, giving ``--metrics-out`` users
trend-at-a-glance as text.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.timeseries import TimeSeriesCollector, series_label
from repro.report.asciichart import sparkline
from repro.report.table import TextTable

__all__ = ["alerts_verdict_line", "metrics_summary"]

#: Sparkline width cap; longer series show their most recent samples.
_TREND_POINTS = 32


def alerts_verdict_line(alerts: Any) -> str:
    """One-line pass/fail digest of an alert evaluation.

    Accepts an :class:`~repro.obs.alerts.AlertEngine`, its ``to_dict()``
    payload, or a sequence of :class:`~repro.obs.alerts.AlertResult`.
    Failed rules are named with the value that tripped them so the
    verdict is actionable without opening the JSON export.
    """
    if alerts is None:
        return ""
    if hasattr(alerts, "to_dict"):
        alerts = alerts.to_dict()
    if isinstance(alerts, Mapping):
        rules = list(alerts.get("rules", ()))
    else:  # sequence of AlertResult
        rules = [
            {
                "name": r.rule.name,
                "expr": r.rule.expr,
                "value": r.value,
                "passed": r.passed,
            }
            for r in alerts
        ]
    if not rules:
        return ""
    passed = sum(1 for r in rules if r.get("passed") is True)
    failed = [r for r in rules if r.get("passed") is False]
    nodata = sum(1 for r in rules if r.get("passed") is None)
    parts = [f"{passed} pass"]
    if failed:
        parts.append(f"{len(failed)} FAIL")
    if nodata:
        parts.append(f"{nodata} n/a")
    line = f"alerts: {', '.join(parts)}"
    if failed:
        detail = "; ".join(
            f"FAIL {r.get('name')} ({r.get('expr')}; value={r.get('value')})"
            for r in failed
        )
        line += f" — {detail}"
    return line


def _trend(collector: TimeSeriesCollector | None, label: str) -> str:
    if collector is None:
        return ""
    values = collector.values(label)
    return sparkline(values[-_TREND_POINTS:])


def metrics_summary(
    registry: MetricsRegistry,
    *,
    title: str = "Metrics summary",
    timeseries: TimeSeriesCollector | None = None,
    alerts: Any = None,
) -> str:
    """One aligned table over every series in ``registry``.

    ``timeseries`` (optional) adds a trend column sampled from the
    collector's buffers; series the collector never scraped get an empty
    trend cell.  ``alerts`` (optional: an AlertEngine, its ``to_dict()``
    payload, or AlertResult sequence) appends a one-line SLO verdict
    under the table.
    """
    headers = ["metric", "type", "value"]
    if timeseries is not None:
        headers.append("trend")
    table = TextTable(headers, title=title)

    def add(cells: list[str], trend_label: str) -> None:
        if timeseries is not None:
            cells.append(_trend(timeseries, trend_label))
        table.add_row(cells)

    for name in registry.names():
        metric = registry.get(name)
        if isinstance(metric, Histogram):
            for key, snap in sorted(metric.series().items()):
                labels = dict(zip(metric.labelnames, key))
                value = (
                    f"n={snap['count']} mean={snap['mean']:.4g} "
                    f"p50={metric.quantile(0.5, **labels):.4g} "
                    f"p95={metric.quantile(0.95, **labels):.4g} "
                    f"p99={metric.quantile(0.99, **labels):.4g} "
                    f"max={snap['max']:.4g}"
                )
                add(
                    [series_label(metric.name, metric.labelnames, key), metric.kind, value],
                    series_label(f"{name}_count", metric.labelnames, key),
                )
        elif isinstance(metric, (Counter, Gauge)):
            for key, value in sorted(metric.series().items()):
                label = series_label(metric.name, metric.labelnames, key)
                add([label, metric.kind, f"{value:.6g}"], label)
    if not table.rows:
        table.add_row(["(no metrics recorded)", "", ""] + ([""] if timeseries is not None else []))
    rendered = table.render()
    verdict = alerts_verdict_line(alerts)
    if verdict:
        rendered += "\n" + verdict
    return rendered

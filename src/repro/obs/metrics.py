"""Metrics registry: Counter / Gauge / Histogram with label sets.

A deliberately small, zero-dependency subset of the Prometheus data model:

* metrics are registered (get-or-create) on a :class:`MetricsRegistry` by
  name; re-registration with a different type, label set or bucket layout
  raises :class:`~repro.errors.ObservabilityError`;
* every metric carries an ordered tuple of label names and keeps one
  series per distinct label-value combination;
* the registry exports either a plain dict (``to_dict`` — what
  ``repro-sim run ... --metrics-out m.json`` writes) or the Prometheus
  text exposition format (``to_prometheus_text`` — for ``.prom`` files
  and scraping bridges).

All operations are plain dict updates — cheap enough to leave in hot
paths, which are additionally gated on :data:`repro.obs.STATE` so a
disabled run never reaches this module at all.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Sequence

from repro.errors import ObservabilityError

__all__ = [
    "COUNT_BUCKETS",
    "DURATION_BUCKETS",
    "IMPORTANCE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "quantile_from_cumulative",
]

#: Wall-clock durations in seconds (microseconds up to multi-second stalls).
DURATION_BUCKETS: tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0,
)

#: Small non-negative integer quantities (victims evicted, rounds used, ...).
COUNT_BUCKETS: tuple[float, ...] = (
    0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)

#: Importance values, which live in [0, 1] by the paper's contract.
IMPORTANCE_BUCKETS: tuple[float, ...] = tuple(i / 10.0 for i in range(1, 11))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def quantile_from_cumulative(
    bounds: Sequence[float],
    cumulative: Sequence[int],
    total: int,
    lo: float,
    hi: float,
    q: float,
) -> float:
    """Estimate the ``q``-quantile from cumulative bucket counts.

    Standard Prometheus-style interpolation: find the first bucket whose
    cumulative count reaches ``q * total`` and interpolate linearly between
    its lower and upper bound.  ``lo``/``hi`` are the exact observed
    min/max, used as the edges of the first and the ``+Inf`` bucket and to
    clamp the estimate into the observed range.  Exposed as a module
    function so exported snapshots (whose buckets are plain dicts) can be
    quantiled without a live :class:`Histogram` (merged serving shards, offline
    ``--metrics-out`` readers).
    """
    if not 0.0 <= q <= 1.0:
        raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
    if total <= 0:
        return 0.0
    target = q * total
    prev_bound = lo
    prev_cum = 0
    for bound, cum in zip(bounds, cumulative):
        if cum >= target:
            in_bucket = cum - prev_cum
            if in_bucket <= 0:
                estimate = bound
            else:
                frac = (target - prev_cum) / in_bucket
                estimate = prev_bound + (bound - prev_bound) * frac
            return min(max(estimate, lo), hi)
        prev_cum = cum
        prev_bound = max(prev_bound, bound)
    return hi  # target falls in the implicit +Inf bucket


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_labels(labelnames: Sequence[str], key: tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in zip(labelnames, key)
    )
    return "{" + pairs + "}"


class _Metric:
    """Shared name/help/label plumbing for the three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ObservabilityError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ObservabilityError(f"invalid label name {label!r} on metric {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if len(labels) != len(self.labelnames):
            raise ObservabilityError(
                f"metric {self.name!r} takes labels {self.labelnames}, got {sorted(labels)}"
            )
        try:
            return tuple(str(labels[name]) for name in self.labelnames)
        except KeyError as exc:
            raise ObservabilityError(
                f"metric {self.name!r} takes labels {self.labelnames}, got {sorted(labels)}"
            ) from exc


class Counter(_Metric):
    """Monotonically increasing count (events, bytes, rejections...)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._series: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ObservabilityError(f"counter {self.name!r} cannot decrease (got {amount})")
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current value of the labelled series (0.0 if never incremented)."""
        return self._series.get(self._key(labels), 0.0)

    def series(self) -> dict[tuple[str, ...], float]:
        """All series, keyed by label-value tuple."""
        return dict(self._series)


class Gauge(_Metric):
    """Point-in-time value (queue depth, occupancy, density...)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._series: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._series[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        return self._series.get(self._key(labels), 0.0)

    def series(self) -> dict[tuple[str, ...], float]:
        return dict(self._series)


class _HistogramSeries:
    __slots__ = ("bucket_counts", "count", "sum", "min", "max")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets  # cumulative-at-export, raw here
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram(_Metric):
    """Distribution of observed values over fixed buckets.

    Buckets are upper bounds (``le``); an implicit ``+Inf`` bucket catches
    everything.  Besides the bucket counts the exact sum/count/min/max are
    kept so reports can show a true mean and range.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DURATION_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ObservabilityError(f"histogram {name!r} needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ObservabilityError(f"histogram {name!r} has duplicate buckets")
        self.buckets = bounds
        self._series: dict[tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        value = float(value)
        series.count += 1
        series.sum += value
        if value < series.min:
            series.min = value
        if value > series.max:
            series.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                series.bucket_counts[i] += 1
                break

    def quantile(self, q: float, **labels: object) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1) of one labelled series.

        Derived from the fixed bucket bounds by linear interpolation (see
        :func:`quantile_from_cumulative`); exact min/max anchor the first
        and the ``+Inf`` bucket, so ``quantile(0.0)``/``quantile(1.0)``
        return the true observed extremes.  Returns 0.0 for an empty or
        unknown series.
        """
        series = self._series.get(self._key(labels))
        if series is None or series.count == 0:
            return 0.0
        cumulative: list[int] = []
        running = 0
        for raw in series.bucket_counts:
            running += raw
            cumulative.append(running)
        return quantile_from_cumulative(
            self.buckets, cumulative, series.count, series.min, series.max, q
        )

    def snapshot(self, **labels: object) -> dict[str, object]:
        """Summary of one labelled series: count/sum/mean/min/max/buckets."""
        series = self._series.get(self._key(labels))
        if series is None:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0, "buckets": {}}
        return self._snapshot_of(series)

    def _snapshot_of(self, series: _HistogramSeries) -> dict[str, object]:
        cumulative: dict[str, int] = {}
        running = 0
        for bound, raw in zip(self.buckets, series.bucket_counts):
            running += raw
            cumulative[repr(bound)] = running
        cumulative["+Inf"] = series.count
        return {
            "count": series.count,
            "sum": series.sum,
            "mean": series.sum / series.count if series.count else 0.0,
            "min": series.min if series.count else 0.0,
            "max": series.max if series.count else 0.0,
            "buckets": cumulative,
        }

    def series(self) -> dict[tuple[str, ...], dict[str, object]]:
        return {key: self._snapshot_of(s) for key, s in self._series.items()}


class MetricsRegistry:
    """Named collection of metrics with get-or-create registration."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    # -- registration -----------------------------------------------------

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] | None = None,
    ) -> Histogram:
        existing = self._metrics.get(name)
        if existing is None:
            metric = Histogram(
                name, help, labelnames,
                buckets=DURATION_BUCKETS if buckets is None else buckets,
            )
            self._metrics[name] = metric
            return metric
        self._check_compatible(existing, Histogram, name, labelnames)
        assert isinstance(existing, Histogram)
        if buckets is not None and tuple(sorted(float(b) for b in buckets)) != existing.buckets:
            raise ObservabilityError(f"histogram {name!r} re-registered with different buckets")
        return existing

    def _get_or_create(self, cls, name: str, help: str, labelnames: Sequence[str]):
        existing = self._metrics.get(name)
        if existing is None:
            metric = cls(name, help, labelnames)
            self._metrics[name] = metric
            return metric
        self._check_compatible(existing, cls, name, labelnames)
        return existing

    @staticmethod
    def _check_compatible(existing: _Metric, cls, name: str, labelnames: Sequence[str]) -> None:
        if type(existing) is not cls:
            raise ObservabilityError(
                f"metric {name!r} already registered as {existing.kind}, not {cls.kind}"
            )
        if existing.labelnames != tuple(labelnames):
            raise ObservabilityError(
                f"metric {name!r} re-registered with labels {tuple(labelnames)}; "
                f"existing labels are {existing.labelnames}"
            )

    # -- merging ----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's series into this one (returns self).

        This is how parallel worker snapshots come home: counters add,
        gauges take the incoming value (last writer wins), histograms add
        bucket-wise (counts, sums, min/max combine).  Metrics unknown to
        this registry are adopted wholesale; a name registered with a
        different type, label set or bucket layout raises
        :class:`~repro.errors.ObservabilityError`.
        """
        for name, theirs in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                if isinstance(theirs, Histogram):
                    mine = self.histogram(
                        name, theirs.help, theirs.labelnames, buckets=theirs.buckets
                    )
                elif isinstance(theirs, Counter):
                    mine = self.counter(name, theirs.help, theirs.labelnames)
                else:
                    assert isinstance(theirs, Gauge)
                    mine = self.gauge(name, theirs.help, theirs.labelnames)
            self._check_compatible(mine, type(theirs), name, theirs.labelnames)
            if isinstance(theirs, Histogram):
                assert isinstance(mine, Histogram)
                if mine.buckets != theirs.buckets:
                    raise ObservabilityError(
                        f"histogram {name!r} merged with different buckets"
                    )
                for key, series in theirs._series.items():
                    target = mine._series.get(key)
                    if target is None:
                        target = mine._series[key] = _HistogramSeries(len(mine.buckets))
                    for i, raw in enumerate(series.bucket_counts):
                        target.bucket_counts[i] += raw
                    target.count += series.count
                    target.sum += series.sum
                    target.min = min(target.min, series.min)
                    target.max = max(target.max, series.max)
            elif isinstance(theirs, Counter):
                assert isinstance(mine, Counter)
                for key, value in theirs._series.items():
                    mine._series[key] = mine._series.get(key, 0.0) + value
            else:
                assert isinstance(theirs, Gauge) and isinstance(mine, Gauge)
                mine._series.update(theirs._series)
        return self

    @classmethod
    def from_dict(cls, payload: Mapping[str, Mapping[str, object]]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output.

        Round-trips counters and gauges exactly.  Histogram bucket
        layouts come from the exported ``buckets`` key (a histogram
        without one raises :class:`~repro.errors.ObservabilityError`);
        raw per-bucket counts are de-cumulated.  The result is a live
        registry — mergeable, summarisable, re-exportable.
        """
        registry = cls()
        for name, entry in payload.items():
            kind = entry.get("type")
            labelnames = tuple(entry.get("labelnames", ()))  # type: ignore[arg-type]
            help_text = str(entry.get("help", ""))
            series = entry.get("series", [])
            if kind == "histogram":
                bounds = entry.get("buckets")
                if bounds is None:
                    raise ObservabilityError(f"histogram {name!r} has no buckets in payload")
                metric = registry.histogram(
                    name, help_text, labelnames,
                    buckets=tuple(float(b) for b in bounds),  # type: ignore[union-attr]
                )
                for row in series:  # type: ignore[union-attr]
                    key = tuple(str(row["labels"][n]) for n in labelnames)
                    hs = _HistogramSeries(len(metric.buckets))
                    hs.count = int(row["count"])
                    hs.sum = float(row["sum"])
                    hs.min = float(row["min"]) if hs.count else float("inf")
                    hs.max = float(row["max"]) if hs.count else float("-inf")
                    cumulative = row.get("buckets", {})
                    previous = 0
                    for i, bound in enumerate(metric.buckets):
                        cum = int(cumulative.get(repr(bound), previous))
                        hs.bucket_counts[i] = cum - previous
                        previous = cum
                    metric._series[key] = hs
            elif kind in ("counter", "gauge"):
                metric = (
                    registry.counter(name, help_text, labelnames)
                    if kind == "counter"
                    else registry.gauge(name, help_text, labelnames)
                )
                for row in series:  # type: ignore[union-attr]
                    key = tuple(str(row["labels"][n]) for n in labelnames)
                    metric._series[key] = float(row["value"])
            else:
                raise ObservabilityError(
                    f"metric {name!r} has unknown type {kind!r} in payload"
                )
        return registry

    # -- introspection ----------------------------------------------------

    def get(self, name: str) -> _Metric | None:
        """The registered metric, or None."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Drop every metric (registrations included)."""
        self._metrics.clear()

    # -- export -----------------------------------------------------------

    def to_dict(self) -> dict[str, dict[str, object]]:
        """JSON-friendly export; the ``--metrics-out`` payload.

        Schema per metric::

            {"type": "counter"|"gauge"|"histogram", "help": str,
             "labelnames": [...],
             "series": [{"labels": {...}, "value": float}              # counter/gauge
                        | {"labels": {...}, "count": int, "sum": ...,  # histogram
                           "mean": ..., "min": ..., "max": ..., "buckets": {...}}]}
        """
        out: dict[str, dict[str, object]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry: dict[str, object] = {
                "type": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            series_out: list[dict[str, object]] = []
            if isinstance(metric, Histogram):
                for key, snap in sorted(metric.series().items()):
                    row: dict[str, object] = {
                        "labels": dict(zip(metric.labelnames, key))
                    }
                    row.update(snap)
                    series_out.append(row)
            else:
                assert isinstance(metric, (Counter, Gauge))
                for key, value in sorted(metric.series().items()):
                    series_out.append(
                        {"labels": dict(zip(metric.labelnames, key)), "value": value}
                    )
            entry["series"] = series_out
            out[name] = entry
        return out

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                for key, series in sorted(metric._series.items()):
                    snap = metric._snapshot_of(series)
                    base = _format_labels(metric.labelnames, key)
                    running = 0
                    for bound, raw in zip(metric.buckets, series.bucket_counts):
                        running += raw
                        le = _format_labels(
                            (*metric.labelnames, "le"), (*key, repr(bound))
                        )
                        lines.append(f"{name}_bucket{le} {running}")
                    le = _format_labels((*metric.labelnames, "le"), (*key, "+Inf"))
                    lines.append(f"{name}_bucket{le} {series.count}")
                    lines.append(f"{name}_sum{base} {snap['sum']}")
                    lines.append(f"{name}_count{base} {series.count}")
            else:
                assert isinstance(metric, (Counter, Gauge))
                for key, value in sorted(metric.series().items()):
                    lines.append(f"{name}{_format_labels(metric.labelnames, key)} {value}")
        return "\n".join(lines) + ("\n" if lines else "")

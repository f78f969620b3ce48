"""Ring-buffer time-series collection scraped from the metrics registry.

The metrics registry answers "what is the value *now*"; the paper's
central feedback signal — storage importance density (Sections 4.4, 5.1.2,
Figures 6/12) — is a *time series*.  A :class:`TimeSeriesCollector`
bridges the two: on a configurable simulation-time cadence it walks the
registry and appends one sample per labelled series into a bounded
:class:`SeriesBuffer`.

Two properties keep decade-long runs cheap:

* **pull, not push** — instrumented hot paths keep doing single dict
  updates; only the scraper (default: daily sim-time) touches every
  series;
* **bounded buffers with pair-averaging downsampling** — when a buffer
  reaches ``max_points`` samples, adjacent pairs are averaged in place,
  halving the sample count and doubling the effective resolution step.
  Memory is therefore O(``series × max_points``) no matter how long the
  run is, and the series keeps full coverage of the run (coarser, never
  truncated).

Whoever owns the sim clock scrapes, through
:func:`repro.sim.probes.scrape`: the engine's instrumented dispatch loop
after any event that finds the cadence due (the check adds no tick and no
event count) and once at the end of each run, and the serving worker
after such a batch.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import ObservabilityError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["SeriesBuffer", "TimeSeriesCollector", "series_label"]

#: Default buffer bound: a daily cadence over ten simulated years downsamples
#: three times (3653 -> 457 points) and stays comfortably renderable.
DEFAULT_MAX_POINTS = 512


def series_label(name: str, labelnames: Sequence[str], key: Sequence[str]) -> str:
    """Canonical ``name{label=value,...}`` identity of one labelled series.

    Shared by the collector and the metrics summary table so
    a metric's series can be matched across exports by plain string equality.
    """
    if not labelnames:
        return name
    pairs = ",".join(f"{n}={v}" for n, v in zip(labelnames, key))
    return f"{name}{{{pairs}}}"


class SeriesBuffer:
    """Bounded ``(t, value)`` buffer with pair-averaging downsampling."""

    __slots__ = ("times", "values", "max_points", "merged_per_point")

    def __init__(self, max_points: int = DEFAULT_MAX_POINTS) -> None:
        if max_points < 4 or max_points % 2:
            raise ObservabilityError(
                f"max_points must be an even number >= 4, got {max_points}"
            )
        self.times: list[float] = []
        self.values: list[float] = []
        self.max_points = max_points
        #: Raw samples represented by each stored point (doubles per downsample).
        self.merged_per_point = 1

    def __len__(self) -> int:
        return len(self.times)

    def append(self, t: float, value: float) -> None:
        """Add one sample, downsampling in place when the buffer is full."""
        if len(self.times) >= self.max_points:
            self._downsample()
        self.times.append(t)
        self.values.append(value)

    def _downsample(self) -> None:
        half = len(self.times) // 2
        self.times = [
            (self.times[2 * i] + self.times[2 * i + 1]) / 2.0 for i in range(half)
        ]
        self.values = [
            (self.values[2 * i] + self.values[2 * i + 1]) / 2.0 for i in range(half)
        ]
        self.merged_per_point *= 2

    def points(self) -> list[tuple[float, float]]:
        """The buffered samples as ``(t, value)`` pairs."""
        return list(zip(self.times, self.values))


class TimeSeriesCollector:
    """Scrape a :class:`MetricsRegistry` into bounded per-series buffers.

    Parameters
    ----------
    interval_minutes:
        Simulation-time cadence between scrapes (default: one day).
    max_points:
        Per-series buffer bound (see :class:`SeriesBuffer`).
    include:
        Optional iterable of metric names; when given, only those metrics
        are scraped.  Default: every counter and gauge, plus histogram
        sample counts (as ``<name>_count``).
    """

    def __init__(
        self,
        *,
        interval_minutes: float = 1440.0,
        max_points: int = DEFAULT_MAX_POINTS,
        include: Sequence[str] | None = None,
    ) -> None:
        if interval_minutes <= 0:
            raise ObservabilityError(
                f"scrape interval must be > 0 minutes, got {interval_minutes}"
            )
        self.interval_minutes = float(interval_minutes)
        self.max_points = max_points
        self.include = None if include is None else frozenset(include)
        self.scrape_count = 0
        self._next_due = float("-inf")
        self._buffers: dict[str, SeriesBuffer] = {}
        #: ``{series label: metric kind}`` for export and :meth:`kind`.
        self._kinds: dict[str, str] = {}

    # -- collection -------------------------------------------------------

    @property
    def next_due(self) -> float:
        """Simulation time at/after which the next scrape fires."""
        return self._next_due

    def rewind(self, now: float) -> None:
        """Pull the cadence back to ``now`` if it is due later.

        Experiments that drive several engines sequentially restart the sim
        clock at zero between sub-runs; without a rewind the cadence left by
        the previous run would suppress every scrape of the next one.
        """
        if now < self._next_due:
            self._next_due = now

    def maybe_scrape(self, now: float, registry: MetricsRegistry | None = None) -> bool:
        """Scrape iff the cadence is due; returns whether a scrape ran."""
        if now < self._next_due:
            return False
        self.scrape(now, registry)
        return True

    def scrape(self, now: float, registry: MetricsRegistry | None = None) -> None:
        """Append one sample per labelled series in ``registry``.

        ``registry`` defaults to the process-global ``obs.STATE.registry``
        (resolved lazily so the collector survives ``obs.enable(...)``
        swapping sinks).
        """
        if registry is None:
            from repro.obs import STATE

            registry = STATE.registry
        for name in registry.names():
            if self.include is not None and name not in self.include:
                continue
            metric = registry.get(name)
            if isinstance(metric, Histogram):
                for key, snap in metric.series().items():
                    label = series_label(f"{name}_count", metric.labelnames, key)
                    self._record(label, "histogram", now, float(snap["count"]))
            elif isinstance(metric, (Counter, Gauge)):
                for key, value in metric.series().items():
                    label = series_label(name, metric.labelnames, key)
                    self._record(label, metric.kind, now, value)
        self.scrape_count += 1
        self._next_due = now + self.interval_minutes

    def _record(self, label: str, kind: str, now: float, value: float) -> None:
        buffer = self._buffers.get(label)
        if buffer is None:
            buffer = self._buffers[label] = SeriesBuffer(self.max_points)
            self._kinds[label] = kind
        buffer.append(now, value)

    # -- merging ----------------------------------------------------------

    def merge(self, other: "TimeSeriesCollector") -> "TimeSeriesCollector":
        """Fold another collector's buffers into this one (returns self).

        Series unknown here are adopted (copied); series present in both
        have their samples interleaved by time and re-downsampled to this
        buffer's bound.  This is how per-worker collectors come back
        together after a parallel run: each worker scraped its own
        registry over the same simulated window, and the merged collector
        feeds the metrics summary exactly as a serial run's would.
        """
        for label, theirs in other._buffers.items():
            mine = self._buffers.get(label)
            if mine is None:
                adopted = SeriesBuffer(theirs.max_points)
                adopted.times = list(theirs.times)
                adopted.values = list(theirs.values)
                adopted.merged_per_point = theirs.merged_per_point
                self._buffers[label] = adopted
                self._kinds[label] = other._kinds.get(label, "untyped")
                continue
            paired = sorted(
                zip([*mine.times, *theirs.times], [*mine.values, *theirs.values])
            )
            times = [t for t, _v in paired]
            values = [v for _t, v in paired]
            merged_per_point = max(mine.merged_per_point, theirs.merged_per_point)
            while len(times) > mine.max_points:
                # Pair-average in place; an odd trailing sample is kept as-is
                # so the end-of-run value always survives the merge.
                half = len(times) // 2
                tail_t = times[2 * half:]
                tail_v = values[2 * half:]
                times = [
                    (times[2 * i] + times[2 * i + 1]) / 2.0 for i in range(half)
                ] + tail_t
                values = [
                    (values[2 * i] + values[2 * i + 1]) / 2.0 for i in range(half)
                ] + tail_v
                merged_per_point *= 2
            mine.times = times
            mine.values = values
            mine.merged_per_point = merged_per_point
        self.scrape_count += other.scrape_count
        self._next_due = max(self._next_due, other._next_due)
        return self

    # -- access -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._buffers)

    def __contains__(self, label: str) -> bool:
        return label in self._buffers

    def labels(self) -> list[str]:
        """Collected series labels, sorted."""
        return sorted(self._buffers)

    def kind(self, label: str) -> str | None:
        """Metric kind behind a collected series label, or None."""
        return self._kinds.get(label)

    def get(self, label: str) -> SeriesBuffer | None:
        """The buffer behind one series label, or None."""
        return self._buffers.get(label)

    def values(self, label: str) -> list[float]:
        """The sampled values of one series ([] when never collected)."""
        buffer = self._buffers.get(label)
        return list(buffer.values) if buffer is not None else []

    # -- export -----------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly export (embedded in ``--metrics-out`` payloads)."""
        return {
            "interval_minutes": self.interval_minutes,
            "scrape_count": self.scrape_count,
            "series": {
                label: {
                    "kind": self._kinds[label],
                    "merged_per_point": buffer.merged_per_point,
                    "t": list(buffer.times),
                    "v": list(buffer.values),
                }
                for label, buffer in sorted(self._buffers.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "TimeSeriesCollector":
        """Rebuild a collector from :meth:`to_dict` output (the CLI's cross-spec fold)."""
        try:
            interval = float(payload["interval_minutes"])  # type: ignore[arg-type]
            series = payload["series"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError(f"malformed timeseries payload: {exc}") from exc
        collector = cls(interval_minutes=interval)
        collector.scrape_count = int(payload.get("scrape_count", 0))  # type: ignore[arg-type]
        for label, data in series.items():  # type: ignore[union-attr]
            times = [float(t) for t in data["t"]]
            values = [float(v) for v in data["v"]]
            if len(times) != len(values):
                raise ObservabilityError(
                    f"timeseries {label!r} has {len(times)} times, {len(values)} values"
                )
            buffer = SeriesBuffer(max(4, 2 * ((len(times) + 3) // 2)))
            buffer.times = times
            buffer.values = values
            buffer.merged_per_point = int(data.get("merged_per_point", 1))
            collector._buffers[label] = buffer
            collector._kinds[label] = str(data.get("kind", "untyped"))
        return collector

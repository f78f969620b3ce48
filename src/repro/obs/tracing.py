"""Span tracing: where does a simulated decade of wall-clock go?

A :class:`Tracer` hands out context-manager *spans*.  Each span records
its wall-clock duration (``time.perf_counter``) and, when provided, the
simulation time at which it opened.  The tracer is the one place a
completed span lives: exact per-label aggregates (count / total / min /
max) over every span, and a bounded list of :class:`SpanRecord` in close
order (``DEFAULT_MAX_SPANS``; overflow counted in ``dropped_spans``).
The span tree (:meth:`Tracer.render_tree`) is drawn from those records,
and the cross-process trace shard (:meth:`Tracer.archive`,
:mod:`repro.obs.traceexport`) is cut from them.

Every span carries a *stable identity*: a monotone ``span_id`` plus the
``span_id`` of its enclosing span, and the tracer's ``(trace_id, spec,
shard)`` tag — the substrate of the trace pipeline (per-worker JSONL
shards, sweep-level merges, critical path, collapsed stacks).

The sim is single-threaded, so nesting is a plain stack — no thread
locals, no contextvars, no overhead beyond two ``perf_counter`` calls and
one record per span.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only; traceexport stays lazy
    from repro.obs.traceexport import TraceArchive

__all__ = [
    "DEFAULT_MAX_SPANS",
    "SpanRecord",
    "SpanStats",
    "Tracer",
    "render_aggregates",
    "render_trace",
    "span_forest",
]

#: Per-tracer record bound: a run that out-spans it keeps exact
#: aggregates but stops appending records, counting the overflow in
#: ``dropped_spans``.
DEFAULT_MAX_SPANS = 100_000

#: Fields stripped by the canonical (structure-only) projection.
_WALL_FIELDS = ("t_start_us", "wall_us")


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One completed span.

    Attributes
    ----------
    seq:
        Close-order position within the shard (0-based; re-sorted merges
        keep the original per-shard value so identity survives folding).
    span_id / parent_id:
        The tracer's stable open-order identity; ``parent_id`` is None
        for the shard's root span.
    label:
        The span label (``engine.run``, ``besteffs.choose_unit``, ...).
    sim_time:
        Simulation time (minutes) at span open, when provided.
    t_start_us / wall_us:
        Wall-clock start (relative to the tracer's creation) and
        duration, in integer microseconds.  Measurement, not identity —
        excluded from the canonical projection.
    trace_id / spec / shard:
        Context tag: the sweep-level trace id, the run-spec slug, and
        the process/shard identity that recorded the span.
    """

    seq: int
    span_id: int
    parent_id: int | None
    label: str
    sim_time: float | None
    t_start_us: int
    wall_us: int
    trace_id: str
    spec: str
    shard: str

    def to_dict(self) -> dict:
        return asdict(self)

    def canonical_dict(self) -> dict:
        """The structure-only projection (wall-clock fields stripped)."""
        payload = asdict(self)
        for key in _WALL_FIELDS:
            payload.pop(key, None)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SpanRecord":
        data = {key: payload.get(key) for key in cls.__dataclass_fields__}
        data["seq"] = int(data["seq"] or 0)
        data["span_id"] = int(data["span_id"] or 0)
        data["t_start_us"] = int(data.get("t_start_us") or 0)
        data["wall_us"] = int(data.get("wall_us") or 0)
        for key in ("label", "trace_id", "spec", "shard"):
            data[key] = str(data[key] or "")
        return cls(**data)


def span_forest(
    records: Iterable[SpanRecord],
) -> dict[str, tuple[list[SpanRecord], dict[int, list[SpanRecord]]]]:
    """Per shard: (root records, parent span_id -> children in close order).

    A record whose parent is not among the shard's records (the parent
    closed after the record bound was hit) is a root, so a truncated
    shard still draws every record it kept.
    """
    records = list(records)
    ids: dict[str, set[int]] = {}
    for record in records:
        ids.setdefault(record.shard, set()).add(record.span_id)
    out: dict[str, tuple[list[SpanRecord], dict[int, list[SpanRecord]]]] = {}
    for record in records:
        roots, children = out.setdefault(record.shard, ([], {}))
        if record.parent_id in ids[record.shard]:
            children.setdefault(record.parent_id, []).append(record)
        else:
            roots.append(record)
    return out


class SpanStats:
    """Exact aggregate over every occurrence of one span label."""

    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def observe(self, duration_s: float) -> None:
        self.count += 1
        self.total_s += duration_s
        if duration_s < self.min_s:
            self.min_s = duration_s
        if duration_s > self.max_s:
            self.max_s = duration_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


def _finite(value: float) -> float:
    """Guard rendered stats against inf/nan from zero-observation labels."""
    return value if math.isfinite(value) else 0.0


def render_aggregates(aggregates: dict[str, dict[str, float]]) -> str:
    """Render a :meth:`Tracer.aggregates` dict as the aggregate table.

    Takes the plain dicts rather than a live tracer, so span timings that
    crossed a process boundary print exactly as in-process ones do.
    Labels with zero observations render zeros, never ``inf`` sentinels.
    """
    lines = ["span aggregates (wall-clock):"]
    if not aggregates:
        lines.append("  (no spans recorded)")
    width = max((len(label) for label in aggregates), default=0)
    for label, stats in sorted(
        aggregates.items(), key=lambda kv: -_finite(kv[1].get("total_s", 0.0))
    ):
        count = int(stats.get("count", 0))
        total = _finite(stats.get("total_s", 0.0))
        mean = _finite(stats.get("mean_s", total / count if count else 0.0))
        peak = _finite(stats.get("max_s", 0.0))
        lines.append(
            f"  {label.ljust(width)}  n={count:<8d} "
            f"total={total:.6f}s "
            f"mean={mean:.6f}s max={peak:.6f}s"
        )
    return "\n".join(lines)


def render_trace(aggregates: dict[str, dict[str, float]], tree: str = "") -> str:
    """The ``--trace`` text: aggregate table, then :meth:`Tracer.render_tree`."""
    table = render_aggregates(aggregates)
    return f"{table}\n{tree}" if tree else table


class Tracer:
    """The span store: per-label aggregates plus bounded span records.

    Parameters
    ----------
    trace_id / spec:
        Context tag stamped on every record (a tracer is one shard, named
        after its spec); :func:`repro.sim.parallel.execute_spec` sets it
        from the run spec.
    max_spans:
        Record bound; spans beyond it still aggregate but are not
        recorded (``dropped_spans`` counts them).
    """

    def __init__(
        self,
        *,
        trace_id: str = "",
        spec: str = "",
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        if max_spans <= 0:
            raise ValueError(f"max_spans must be positive, got {max_spans!r}")
        self.trace_id = trace_id
        self.spec = spec
        self.max_spans = max_spans
        self.reset()

    @contextmanager
    def span(self, label: str, *, sim_time: float | None = None) -> Iterator[None]:
        """Time a block as one span; it is recorded when the block exits."""
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._id_stack[-1] if self._id_stack else None
        self._id_stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            duration = perf_counter() - start
            self._id_stack.pop()
            stats = self._aggregates.get(label)
            if stats is None:
                stats = self._aggregates[label] = SpanStats()
            stats.observe(duration)
            records = self._records
            if len(records) < self.max_spans:
                records.append(
                    SpanRecord(
                        seq=len(records),
                        span_id=span_id,
                        parent_id=parent_id,
                        label=label,
                        sim_time=sim_time,
                        t_start_us=int((start - self._epoch) * 1e6),
                        wall_us=int(duration * 1e6),
                        trace_id=self.trace_id,
                        spec=self.spec,
                        shard=self.spec,
                    )
                )
            else:
                self.dropped_spans += 1

    # -- reporting --------------------------------------------------------

    @property
    def records(self) -> tuple[SpanRecord, ...]:
        """The recorded spans, in close order."""
        return tuple(self._records)

    def aggregates(self) -> dict[str, dict[str, float]]:
        """Per-label aggregate timings, as plain dicts (JSON-friendly)."""
        return {label: stats.as_dict() for label, stats in sorted(self._aggregates.items())}

    def stats(self, label: str) -> SpanStats | None:
        """The aggregate for one label, or None."""
        return self._aggregates.get(label)

    def archive(self) -> "TraceArchive":
        """The recorded spans as one trace shard (:mod:`repro.obs.traceexport`)."""
        from repro.obs.traceexport import TraceArchive

        return TraceArchive(
            trace_id=self.trace_id,
            dropped_spans=self.dropped_spans,
            _records=list(self._records),
        )

    def render_tree(self, *, max_depth: int = 6, max_children: int = 20) -> str:
        """The recorded spans as a bounded, indented tree ("" when none).

        At most ``max_children`` children are drawn per node (roots
        included), each followed by a ``... N more`` line when siblings
        were cut, and at most ``max_depth`` levels below a root.  The
        closing lines count every span left out.  Plain text so it can
        ride in the telemetry payload next to the aggregates.
        """
        if not self._records and not self.dropped_spans:
            return ""
        lines = ["span tree:"]
        shown = 0

        def draw(
            nodes: list[SpanRecord], children: dict[int, list[SpanRecord]], depth: int
        ) -> None:
            nonlocal shown
            indent = "  " * (depth + 1)
            for record in nodes[:max_children]:
                at = "" if record.sim_time is None else f" @t={record.sim_time:g}m"
                lines.append(f"{indent}{record.label}: {record.wall_us / 1e6:.6f}s{at}")
                shown += 1
                if depth < max_depth:
                    draw(children.get(record.span_id, []), children, depth + 1)
            if len(nodes) > max_children:
                lines.append(f"{indent}... {len(nodes) - max_children} more")

        for roots, children in span_forest(self._records).values():
            draw(roots, children, 0)
        hidden = len(self._records) - shown
        if hidden:
            lines.append(f"  ({hidden} of {len(self._records)} recorded spans not shown)")
        if self.dropped_spans:
            lines.append(
                f"  dropped_spans={self.dropped_spans} "
                f"(beyond the {self.max_spans}-record bound; aggregated only)"
            )
        return "\n".join(lines)

    def render(self, *, max_depth: int = 6, max_children: int = 20) -> str:
        """Human-readable trace: aggregate table, then the span tree."""
        return render_trace(
            self.aggregates(),
            self.render_tree(max_depth=max_depth, max_children=max_children),
        )

    def reset(self) -> None:
        """Drop all recorded spans and aggregates; span ids restart at 1."""
        self.dropped_spans = 0
        self._records: list[SpanRecord] = []
        self._id_stack: list[int] = []
        self._next_id = 1
        self._epoch = perf_counter()
        self._aggregates: dict[str, SpanStats] = {}

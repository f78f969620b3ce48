"""Span tracing: where does a simulated decade of wall-clock go?

A :class:`Tracer` hands out context-manager *spans*.  Each span records
its wall-clock duration (``time.perf_counter``) and, when provided, the
simulation time at which it opened; spans nest, so a bounded tree of
:class:`SpanNode` survives the run for drill-down while per-label
aggregates (count / total / min / max) stay exact regardless of tree
bounds.

Every span additionally carries a *stable identity*: a monotone
``span_id`` plus the ``span_id`` of its enclosing span, assigned whether
or not the node is retained in the tree.  When an exporter
(:class:`repro.obs.traceexport.SpanExporter`) is attached, each closing
span is streamed to it with that identity — the substrate of the
cross-process trace pipeline (per-worker JSONL shards, sweep-level
merges, flamegraphs).

The sim is single-threaded, so nesting is a plain stack — no thread
locals, no contextvars, no overhead beyond two ``perf_counter`` calls per
span.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only; traceexport stays lazy
    from repro.obs.traceexport import SpanExporter

__all__ = ["SpanNode", "SpanStats", "Tracer", "render_aggregates", "render_trace"]


@dataclass
class SpanNode:
    """One recorded span occurrence in the trace tree."""

    label: str
    sim_time: float | None = None
    duration_s: float = 0.0
    #: Stable id assigned at open time (monotone per tracer, 1-based).
    span_id: int = 0
    #: ``span_id`` of the enclosing span, or None for roots.
    parent_id: int | None = None
    children: list["SpanNode"] = field(default_factory=list)

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "SpanNode"]]:
        """Depth-first ``(depth, node)`` traversal of this subtree."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


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

    def merge(self, other: "SpanStats") -> None:
        """Fold another label aggregate into this one (cross-process merge)."""
        self.count += other.count
        self.total_s += other.total_s
        if other.count:
            if other.min_s < self.min_s:
                self.min_s = other.min_s
            if other.max_s > self.max_s:
                self.max_s = other.max_s

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
    """Collects nested spans and per-label wall-clock aggregates.

    Parameters
    ----------
    keep_tree:
        Retain the span tree (up to ``max_nodes`` nodes).  Aggregates are
        always kept; the tree is for drill-down rendering.
    max_nodes:
        Tree-size bound; spans beyond it still aggregate but are not
        attached to the tree (``dropped_spans`` counts them).
    exporter:
        Optional :class:`~repro.obs.traceexport.SpanExporter`; every
        closing span (tree-retained or not) is streamed to it with its
        stable id/parent-id and sim time.
    """

    def __init__(
        self,
        *,
        keep_tree: bool = True,
        max_nodes: int = 10_000,
        exporter: "SpanExporter | None" = None,
    ) -> None:
        self.keep_tree = keep_tree
        self.max_nodes = max_nodes
        self.exporter = exporter
        self.roots: list[SpanNode] = []
        #: Spans not retained in the tree because of the ``max_nodes``
        #: bound.  Aggregates (and the export stream) still see them.
        self.dropped_spans = 0
        self._stack: list[SpanNode | None] = []
        #: (span_id, parent_id) mirror of ``_stack``, kept for every span
        #: regardless of tree retention so identities stay stable.
        self._id_stack: list[int] = []
        self._next_id = 1
        self._node_count = 0
        self._aggregates: dict[str, SpanStats] = {}

    @property
    def dropped(self) -> int:
        """Back-compat alias of :attr:`dropped_spans`."""
        return self.dropped_spans

    @dropped.setter
    def dropped(self, value: int) -> None:
        self.dropped_spans = value

    @contextmanager
    def span(self, label: str, *, sim_time: float | None = None) -> Iterator[SpanNode | None]:
        """Open a span; yields the :class:`SpanNode` (None if tree-dropped)."""
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._id_stack[-1] if self._id_stack else None
        node: SpanNode | None = None
        if self.keep_tree and self._node_count < self.max_nodes:
            node = SpanNode(
                label=label, sim_time=sim_time, span_id=span_id, parent_id=parent_id
            )
            self._node_count += 1
            parent = next((n for n in reversed(self._stack) if n is not None), None)
            if parent is not None:
                parent.children.append(node)
            else:
                self.roots.append(node)
        elif self.keep_tree:
            self.dropped_spans += 1
        self._stack.append(node)
        self._id_stack.append(span_id)
        start = perf_counter()
        try:
            yield node
        finally:
            duration = perf_counter() - start
            self._stack.pop()
            self._id_stack.pop()
            if node is not None:
                node.duration_s = duration
            stats = self._aggregates.get(label)
            if stats is None:
                stats = self._aggregates[label] = SpanStats()
            stats.observe(duration)
            if self.exporter is not None:
                self.exporter.export(
                    span_id=span_id,
                    parent_id=parent_id,
                    label=label,
                    sim_time=sim_time,
                    start=start,
                    duration_s=duration,
                )

    # -- reporting --------------------------------------------------------

    def aggregates(self) -> dict[str, dict[str, float]]:
        """Per-label aggregate timings, as plain dicts (JSON-friendly)."""
        return {label: stats.as_dict() for label, stats in sorted(self._aggregates.items())}

    def stats(self, label: str) -> SpanStats | None:
        """The aggregate for one label, or None."""
        return self._aggregates.get(label)

    def render_tree(self, *, max_depth: int = 6, max_children: int = 20) -> str:
        """The retained span tree as bounded, indented text ("" when empty).

        Plain text so it can ride in the telemetry payload next to the aggregates.
        """
        lines: list[str] = []
        if self.roots:
            lines.append("span tree:")
            for root in self.roots[:max_children]:
                for depth, node in root.walk():
                    if depth > max_depth:
                        continue
                    at = "" if node.sim_time is None else f" @t={node.sim_time:g}m"
                    lines.append(
                        f"  {'  ' * depth}{node.label}: {node.duration_s:.6f}s{at}"
                    )
            hidden = len(self.roots) - max_children
            if hidden > 0:
                lines.append(f"  ... {hidden} more root spans")
        if self.dropped_spans:
            lines.append(
                f"  dropped_spans={self.dropped_spans} "
                "(beyond the tree bound; aggregated and exported only)"
            )
        return "\n".join(lines)

    def render(self, *, max_depth: int = 6, max_children: int = 20) -> str:
        """Human-readable trace: aggregate table, then the span tree."""
        return render_trace(
            self.aggregates(),
            self.render_tree(max_depth=max_depth, max_children=max_children),
        )

    def reset(self) -> None:
        """Drop all recorded spans and aggregates (exporter detached)."""
        self.roots.clear()
        self._stack.clear()
        self._id_stack.clear()
        self._aggregates.clear()
        self._node_count = 0
        self._next_id = 1
        self.dropped_spans = 0
        self.exporter = None

"""Sweep-level trace analysis: critical path and collapsed stacks.

Consumes the :class:`~repro.obs.traceexport.TraceArchive` shards the
trace pipeline writes (``--trace-out``) and answers the question a
multi-process sweep raises: **which shard, spec, or phase is the
straggler?**

* :func:`critical_path` — attributes the sweep's wall-clock to the
  slowest chain of spans: the straggler shard's root, then the heaviest
  child at every level, with exclusive (self) time per step and the
  top-k dominating span labels across the whole archive.
* :func:`collapsed_stacks` — every shard's span trees folded into one
  line per distinct label stack with its summed exclusive time, the
  standard input of external flamegraph tools.  Written by
  ``repro-sim flamegraph <run-dir>``.

Both are deterministic: the same archive always renders the same text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.obs.traceexport import TraceArchive
from repro.obs.tracing import SpanRecord, span_forest

__all__ = [
    "CriticalPathResult",
    "PathStep",
    "collapsed_stacks",
    "critical_path",
    "load_trace_archives",
    "render_critical_path",
]


def _ms(us: int) -> str:
    return f"{us / 1000.0:.3f}ms"


def _self_us(record: SpanRecord, children: Mapping[int, list[SpanRecord]]) -> int:
    spent = sum(c.wall_us for c in children.get(record.span_id, ()))
    return max(0, record.wall_us - spent)


# -- critical path ---------------------------------------------------------


@dataclass(frozen=True)
class PathStep:
    """One span on the sweep's critical path."""

    label: str
    spec: str
    shard: str
    wall_us: int
    #: Exclusive time: this span's wall minus its children's.
    self_us: int
    sim_time: float | None


@dataclass(frozen=True)
class CriticalPathResult:
    """Where the sweep's wall-clock went, attributed to one slow chain.

    ``total_us`` is the sweep's effective wall: the slowest shard's root
    span (shards run concurrently, so the straggler bounds the sweep).
    ``path`` descends from that root through the heaviest child at each
    level; ``top_spans`` ranks labels by exclusive time across *all*
    shards (``(label, self_total_us, count)``).
    """

    total_us: int
    straggler: str
    shard_walls: tuple[tuple[str, int], ...]
    path: tuple[PathStep, ...]
    top_spans: tuple[tuple[str, int, int], ...]
    span_count: int
    dropped_spans: int


def critical_path(archive: TraceArchive, *, top_k: int = 10) -> CriticalPathResult:
    """Attribute the archive's wall-clock to the slowest span chain."""
    trees = span_forest(archive.records)
    shard_walls = tuple(
        sorted(
            ((shard, sum(r.wall_us for r in roots)) for shard, (roots, _c) in trees.items()),
            key=lambda kv: (-kv[1], kv[0]),
        )
    )
    straggler = shard_walls[0][0] if shard_walls else ""
    total_us = shard_walls[0][1] if shard_walls else 0

    path: list[PathStep] = []
    if straggler:
        roots, children = trees[straggler]
        node = max(roots, key=lambda r: (r.wall_us, -r.seq), default=None)
        while node is not None:
            path.append(
                PathStep(
                    label=node.label,
                    spec=node.spec,
                    shard=node.shard,
                    wall_us=node.wall_us,
                    self_us=_self_us(node, children),
                    sim_time=node.sim_time,
                )
            )
            kids = children.get(node.span_id, ())
            node = max(kids, key=lambda r: (r.wall_us, -r.seq), default=None)

    self_by_label: dict[str, list[int]] = {}
    for record in archive.records:
        _roots, children = trees[record.shard]
        entry = self_by_label.setdefault(record.label, [0, 0])
        entry[0] += _self_us(record, children)
        entry[1] += 1
    top_spans = tuple(
        (label, totals[0], totals[1])
        for label, totals in sorted(
            self_by_label.items(), key=lambda kv: (-kv[1][0], kv[0])
        )[:top_k]
    )
    return CriticalPathResult(
        total_us=total_us,
        straggler=straggler,
        shard_walls=shard_walls,
        path=tuple(path),
        top_spans=top_spans,
        span_count=len(archive),
        dropped_spans=archive.dropped_spans,
    )


def render_critical_path(result: CriticalPathResult) -> str:
    """Text rendering of a :class:`CriticalPathResult` (CLI output)."""
    lines = [
        f"critical path (sweep wall {_ms(result.total_us)} across "
        f"{len(result.shard_walls)} shard{'s' if len(result.shard_walls) != 1 else ''}; "
        f"straggler: {result.straggler or '(none)'})"
    ]
    for depth, step in enumerate(result.path):
        share = step.wall_us / result.total_us * 100.0 if result.total_us else 0.0
        at = "" if step.sim_time is None else f" @t={step.sim_time:g}m"
        lines.append(
            f"  {'  ' * depth}{step.label}: {_ms(step.wall_us)} "
            f"({share:.1f}% of sweep, self {_ms(step.self_us)}){at}"
        )
    if result.top_spans:
        # Exclusive time sums across every shard, so the share denominator
        # is the summed shard wall (aggregate work), not the straggler's.
        aggregate_us = sum(wall for _shard, wall in result.shard_walls)
        lines.append("top spans by exclusive time:")
        width = max(len(label) for label, _s, _n in result.top_spans)
        for label, self_us, count in result.top_spans:
            share = self_us / aggregate_us * 100.0 if aggregate_us else 0.0
            lines.append(
                f"  {label.ljust(width)}  self={_ms(self_us)} ({share:.1f}%) n={count}"
            )
    if result.dropped_spans:
        lines.append(
            f"  ({result.dropped_spans} spans dropped by shard bounds; "
            "analysis covers the exported records)"
        )
    return "\n".join(lines)


# -- collapsed stacks ------------------------------------------------------


def collapsed_stacks(archive: TraceArchive) -> str:
    """Folded-stack text: one ``a;b;c <self_us>`` line per distinct label stack.

    Self time is summed per stack across every shard and lines sort
    lexically, so the same archive always yields the same text; any
    external flamegraph tool that reads the folded format can draw it.
    """
    totals: dict[str, int] = {}
    for roots, children in span_forest(archive.records).values():
        pending = [(record, record.label) for record in roots]
        while pending:
            record, stack = pending.pop()
            totals[stack] = totals.get(stack, 0) + _self_us(record, children)
            pending.extend(
                (child, f"{stack};{child.label}")
                for child in children.get(record.span_id, ())
            )
    return "".join(f"{stack} {us}\n" for stack, us in sorted(totals.items()))


def load_trace_archives(paths: Iterable[str]) -> TraceArchive:
    """Read + merge many trace shard files into one archive."""
    archives = [TraceArchive.read_jsonl(path) for path in paths]
    return TraceArchive.merged(archives)

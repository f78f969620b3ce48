"""Self-contained HTML dashboard for instrumented runs.

Zero dependencies, zero network: one ``.html`` file with inline CSS and
inline SVG that renders density/occupancy/event time series, a per-node
Besteffs occupancy grid, the phase profile and histogram percentiles.
Light and dark mode are both styled (``prefers-color-scheme``), series
identity never relies on color alone (direct labels + legends), and every
mark carries a native ``<title>`` tooltip.

Inputs are the JSON-friendly payloads of :func:`repro.obs.export_payload`
— one dict per experiment with ``metrics`` (``MetricsRegistry.to_dict``) and
optionally ``timeseries`` (``TimeSeriesCollector.to_dict``), ``spans``
(``Tracer.aggregates``) and ``profile`` (``PhaseProfiler.aggregates``) —
so a dashboard can be rebuilt later from ``--metrics-out`` files via
``repro-sim dashboard <run-dir>``.
"""

from __future__ import annotations

import html
from typing import Any, Mapping, Sequence

from repro.obs.metrics import quantile_from_cumulative

__all__ = ["render_dashboard", "write_dashboard"]

#: Cap on generic sparkline cards per experiment (dropped series are counted).
MAX_SPARKLINE_CARDS = 48
#: Cap on occupancy-grid cells / heatmap rows (sorted by unit id).
MAX_GRID_CELLS = 512
MAX_HEATMAP_ROWS = 48
#: Density overlays switch to a heatmap above this many units.
MAX_OVERLAY_SERIES = 3

_DENSITY_PREFIX = "store_importance_density{unit="
_OCCUPANCY_METRIC = "store_occupancy_ratio"

# Reference palette (light / dark): categorical slots 1-3, sequential blue
# ramp low->high, text and surface tokens.  See docs/observability.md.
_CSS = """
:root {
  color-scheme: light;
  --surface: #fcfcfb; --card: #ffffff; --line: #e5e4e0;
  --ink: #0b0b0b; --ink-2: #52514e;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19; --card: #222221; --line: #33332f;
    --ink: #ffffff; --ink-2: #c3c2b7;
    --s1: #3987e5; --s2: #d95926; --s3: #199e70;
  }
}
.hm-0{fill:#cde2fb}.hm-1{fill:#9ec5f4}.hm-2{fill:#6da7ec}.hm-3{fill:#3987e5}
.hm-4{fill:#256abf}.hm-5{fill:#1c5cab}.hm-6{fill:#104281}.hm-7{fill:#0d366b}
.fd-0{fill:#cde2fb}.fd-1{fill:#9ec5f4}.fd-2{fill:#6da7ec}.fd-3{fill:#3987e5}
.fd-4{fill:#256abf}.fd-5{fill:#1c5cab}.fd-6{fill:#104281}.fd-7{fill:#0d366b}
@media (prefers-color-scheme: dark) {
  .hm-0{fill:#0d366b}.hm-1{fill:#104281}.hm-2{fill:#1c5cab}.hm-3{fill:#256abf}
  .hm-4{fill:#3987e5}.hm-5{fill:#6da7ec}.hm-6{fill:#9ec5f4}.hm-7{fill:#cde2fb}
  .fd-0{fill:#0d366b}.fd-1{fill:#104281}.fd-2{fill:#1c5cab}.fd-3{fill:#256abf}
  .fd-4{fill:#3987e5}.fd-5{fill:#6da7ec}.fd-6{fill:#9ec5f4}.fd-7{fill:#cde2fb}
}
svg .frame-label { fill: #ffffff; font-weight: 600; pointer-events: none; }
* { box-sizing: border-box; }
body { margin: 0; padding: 24px; background: var(--surface); color: var(--ink);
       font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 10px; }
h3 { font-size: 13px; font-weight: 600; margin: 0 0 6px; color: var(--ink); }
.sub { color: var(--ink-2); margin: 0 0 18px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 12px 0 4px; }
.tile { background: var(--card); border: 1px solid var(--line); border-radius: 8px;
        padding: 10px 16px; min-width: 120px; }
.tile .v { font-size: 22px; font-weight: 650; font-variant-numeric: tabular-nums; }
.tile .k { color: var(--ink-2); font-size: 12px; }
.cards { display: flex; flex-wrap: wrap; gap: 12px; }
.card { background: var(--card); border: 1px solid var(--line); border-radius: 8px;
        padding: 10px 12px; }
.card .meta { color: var(--ink-2); font-size: 11px; font-variant-numeric: tabular-nums; }
svg text { font: 10px system-ui, sans-serif; fill: var(--ink-2); }
svg .lbl { fill: var(--ink); font-weight: 600; }
.axis { stroke: var(--line); stroke-width: 1; }
.spark { stroke: var(--s1); stroke-width: 2; fill: none;
         stroke-linejoin: round; stroke-linecap: round; }
.l1 { stroke: var(--s1); } .l2 { stroke: var(--s2); } .l3 { stroke: var(--s3); }
.line { stroke-width: 2; fill: none; stroke-linejoin: round; stroke-linecap: round; }
.dot { fill: var(--s1); }
.hit { fill: transparent; }
.hit:hover { fill: var(--s1); fill-opacity: 0.25; }
.legend { display: flex; gap: 16px; margin: 6px 0 0; color: var(--ink-2); font-size: 12px; }
.swatch { display: inline-block; width: 10px; height: 10px; border-radius: 2px;
          margin-right: 5px; }
table { border-collapse: collapse; background: var(--card); border: 1px solid var(--line);
        border-radius: 8px; }
th, td { text-align: left; padding: 5px 12px; border-bottom: 1px solid var(--line);
         font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; font-size: 12px; }
tr:last-child td { border-bottom: none; }
td.num, th.num { text-align: right; }
.ok { color: var(--s3); font-weight: 600; }
.bad { color: var(--s2); font-weight: 700; }
.note { color: var(--ink-2); font-size: 12px; margin: 6px 0 0; }
footer { margin-top: 32px; color: var(--ink-2); font-size: 12px; }
"""


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _counter_total(metrics: Mapping[str, Any], name: str) -> float:
    metric = metrics.get(name)
    if not metric:
        return 0.0
    return sum(float(s.get("value", 0.0)) for s in metric.get("series", ()))


def _counter_total_where(
    metrics: Mapping[str, Any], name: str, label: str, value: str
) -> float:
    metric = metrics.get(name)
    if not metric:
        return 0.0
    return sum(
        float(s.get("value", 0.0))
        for s in metric.get("series", ())
        if s.get("labels", {}).get(label) == value
    )


def _gauge_series(metrics: Mapping[str, Any], name: str) -> list[tuple[str, float]]:
    metric = metrics.get(name)
    if not metric:
        return []
    out = []
    for s in metric.get("series", ()):
        labels = s.get("labels", {})
        key = ",".join(f"{k}={v}" for k, v in labels.items()) if labels else ""
        out.append((key, float(s.get("value", 0.0))))
    return sorted(out)


def _timeseries_entries(payload: Mapping[str, Any]) -> dict[str, dict[str, Any]]:
    ts = payload.get("timeseries")
    if not isinstance(ts, Mapping):
        return {}
    series = ts.get("series")
    return dict(series) if isinstance(series, Mapping) else {}


# -- SVG builders ---------------------------------------------------------


def _scale(values: Sequence[float], lo: float, hi: float, size: float) -> list[float]:
    span = (hi - lo) or 1.0
    return [(v - lo) / span * size for v in values]


def _svg_sparkline(
    label: str, times: Sequence[float], values: Sequence[float]
) -> str:
    """One sparkline card: 240x56 polyline, last-value dot, hover targets."""
    w, h, pad = 240, 56, 4
    lo, hi = min(values), max(values)
    xs = _scale(list(range(len(values))), 0, max(1, len(values) - 1), w - 2 * pad)
    if lo == hi:
        # A constant series is a horizontal line through the middle of the
        # card, not a line pinned to the bottom edge (the _scale fallback).
        ys = [(h - 2 * pad) / 2.0] * len(values)
    else:
        ys = _scale(values, lo, hi, h - 2 * pad)
    pts = " ".join(
        f"{pad + x:.1f},{h - pad - y:.1f}" for x, y in zip(xs, ys)
    )
    parts = [
        f'<svg width="{w}" height="{h}" role="img" aria-label="{_esc(label)}">',
        f'<polyline class="spark" points="{pts}"/>',
        f'<circle class="dot" cx="{pad + xs[-1]:.1f}" cy="{h - pad - ys[-1]:.1f}" r="3"/>',
    ]
    if len(values) <= 120:
        for i, (x, y) in enumerate(zip(xs, ys)):
            parts.append(
                f'<circle class="hit" cx="{pad + x:.1f}" cy="{h - pad - y:.1f}" r="6">'
                f"<title>t={_fmt(times[i])}m: {_fmt(values[i])}</title></circle>"
            )
    parts.append("</svg>")
    return "".join(parts)


def _sparkline_card(label: str, entry: Mapping[str, Any]) -> str:
    times = [float(t) for t in entry.get("t", ())]
    values = [float(v) for v in entry.get("v", ())]
    if not values:
        return ""
    meta = (
        f"last {_fmt(values[-1])} · min {_fmt(min(values))} · max {_fmt(max(values))}"
        f" · {len(values)} pts"
    )
    return (
        '<div class="card">'
        f"<h3>{_esc(label)}</h3>"
        f"{_svg_sparkline(label, times, values)}"
        f'<div class="meta">{_esc(meta)}</div>'
        "</div>"
    )


def _svg_overlay(
    series: list[tuple[str, list[float], list[float]]],
) -> str:
    """Density overlay: <=3 series, shared axes, legend + end-of-line labels."""
    w, h, pad_l, pad_r, pad_t, pad_b = 680, 200, 46, 120, 10, 22
    all_t = [t for _n, ts, _v in series for t in ts]
    all_v = [v for _n, _t, vs in series for v in vs]
    t_lo, t_hi = min(all_t), max(all_t)
    v_lo, v_hi = min(all_v), max(all_v)
    if v_lo == v_hi:
        v_hi = v_lo + 1.0
    plot_w, plot_h = w - pad_l - pad_r, h - pad_t - pad_b
    parts = [f'<svg width="{w}" height="{h}" role="img" aria-label="density over time">']
    parts.append(
        f'<line class="axis" x1="{pad_l}" y1="{h - pad_b}" x2="{w - pad_r}" y2="{h - pad_b}"/>'
        f'<line class="axis" x1="{pad_l}" y1="{pad_t}" x2="{pad_l}" y2="{h - pad_b}"/>'
    )
    for i, (name, times, values) in enumerate(series):
        xs = _scale(times, t_lo, t_hi, plot_w)
        ys = _scale(values, v_lo, v_hi, plot_h)
        pts = " ".join(
            f"{pad_l + x:.1f},{h - pad_b - y:.1f}" for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline class="line l{i + 1}" points="{pts}">'
            f"<title>{_esc(name)}</title></polyline>"
        )
        parts.append(
            f'<text class="lbl" x="{pad_l + plot_w + 6}" '
            f'y="{h - pad_b - ys[-1] + 3:.1f}">{_esc(name)}</text>'
        )
    parts.append(
        f'<text x="{pad_l - 4}" y="{pad_t + 8}" text-anchor="end">{_fmt(v_hi)}</text>'
        f'<text x="{pad_l - 4}" y="{h - pad_b}" text-anchor="end">{_fmt(v_lo)}</text>'
        f'<text x="{pad_l}" y="{h - 6}">t={_fmt(t_lo)}m</text>'
        f'<text x="{w - pad_r}" y="{h - 6}" text-anchor="end">t={_fmt(t_hi)}m</text>'
    )
    parts.append("</svg>")
    legend = "".join(
        f'<span><span class="swatch" style="background: var(--s{i + 1})"></span>'
        f"{_esc(name)}</span>"
        for i, (name, _t, _v) in enumerate(series)
    )
    return "".join(parts) + f'<div class="legend">{legend}</div>'


def _bucket_index(value: float, lo: float, hi: float) -> int:
    if hi <= lo:
        return 0
    frac = (value - lo) / (hi - lo)
    return max(0, min(7, int(frac * 8)))


def _svg_heatmap(rows: list[tuple[str, list[float]]], columns: int) -> str:
    """Units x time heatmap; cell shade = sequential blue ramp (8 steps)."""
    cell_w, cell_h, label_w = 9, 12, 150
    w = label_w + columns * cell_w + 8
    h = len(rows) * cell_h + 20
    all_v = [v for _n, vs in rows for v in vs]
    lo, hi = min(all_v), max(all_v)
    parts = [
        f'<svg width="{w}" height="{h}" role="img" aria-label="density heatmap">',
    ]
    for r, (name, values) in enumerate(rows):
        y = r * cell_h
        parts.append(
            f'<text x="{label_w - 6}" y="{y + cell_h - 3}" text-anchor="end">'
            f"{_esc(name)}</text>"
        )
        for c, value in enumerate(values):
            parts.append(
                f'<rect class="hm-{_bucket_index(value, lo, hi)}" '
                f'x="{label_w + c * cell_w}" y="{y}" '
                f'width="{cell_w - 1}" height="{cell_h - 1}">'
                f"<title>{_esc(name)} · col {c + 1}/{columns}: {_fmt(value)}</title></rect>"
            )
    parts.append(
        f'<text x="{label_w}" y="{h - 4}">low {_fmt(lo)}</text>'
        f'<text x="{w - 8}" y="{h - 4}" text-anchor="end">high {_fmt(hi)}</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _svg_occupancy_grid(cells: list[tuple[str, float]]) -> str:
    """Per-unit occupancy as a wrapped grid of shaded squares (0..1)."""
    size, gap, per_row = 14, 2, 32
    rows = (len(cells) + per_row - 1) // per_row
    w = per_row * (size + gap) + 2
    h = rows * (size + gap) + 2
    parts = [
        f'<svg width="{w}" height="{h}" role="img" aria-label="per-unit occupancy">',
    ]
    for i, (unit, value) in enumerate(cells):
        x = (i % per_row) * (size + gap)
        y = (i // per_row) * (size + gap)
        parts.append(
            f'<rect class="hm-{_bucket_index(value, 0.0, 1.0)}" rx="2" '
            f'x="{x}" y="{y}" width="{size}" height="{size}">'
            f"<title>{_esc(unit)}: {value * 100.0:.1f}% full</title></rect>"
        )
    parts.append("</svg>")
    return "".join(parts)


# -- sections -------------------------------------------------------------


def _tiles_section(payload: Mapping[str, Any]) -> str:
    metrics = payload.get("metrics", {})
    spans = payload.get("spans", {}) or {}
    tiles: list[tuple[str, str]] = [
        (_fmt(_counter_total(metrics, "engine_events_total")), "events dispatched"),
        (
            _fmt(_counter_total_where(metrics, "store_admissions_total", "outcome", "admitted")),
            "offers admitted",
        ),
        (
            _fmt(_counter_total_where(metrics, "store_admissions_total", "outcome", "rejected")),
            "offers rejected",
        ),
        (_fmt(_counter_total(metrics, "store_evictions_total")), "evictions"),
    ]
    densities = _gauge_series(metrics, "store_importance_density")
    if densities:
        mean_density = sum(v for _k, v in densities) / len(densities)
        tiles.append((_fmt(mean_density), "final density (mean over units)"))
    engine_run = spans.get("engine.run")
    if engine_run:
        tiles.append((f"{float(engine_run['total_s']):.3f}s", "engine wall-clock"))
    body = "".join(
        f'<div class="tile"><div class="v">{_esc(v)}</div><div class="k">{_esc(k)}</div></div>'
        for v, k in tiles
    )
    return f'<div class="tiles">{body}</div>'


def _alerts_section(payload: Mapping[str, Any]) -> str:
    """Pass/fail SLO panel from an :class:`AlertEngine` snapshot."""
    alerts = payload.get("alerts")
    if not isinstance(alerts, Mapping) or not alerts.get("rules"):
        return ""
    rows = []
    for rule in alerts["rules"]:
        passed = rule.get("passed")
        if passed is None:
            verdict, cls = "n/a", ""
        elif passed:
            verdict, cls = "pass", "ok"
        else:
            verdict, cls = "FAIL", "bad"
        value = rule.get("value")
        first = rule.get("first_violation")
        rows.append(
            f"<tr><td>{_esc(rule.get('name', ''))}</td>"
            f"<td><code>{_esc(rule.get('expr', ''))}</code></td>"
            f'<td class="num">{"-" if value is None else _fmt(float(value))}</td>'
            f'<td class="num">{"-" if first is None else _fmt(float(first))}</td>'
            f'<td class="{cls}">{verdict}</td></tr>'
        )
    overall_ok = bool(alerts.get("passed", True))
    overall = (
        '<span class="ok">pass</span>' if overall_ok else '<span class="bad">FAIL</span>'
    )
    return (
        f"<h2>SLO alerts &mdash; {overall}</h2><table><thead><tr>"
        '<th>rule</th><th>expression</th><th class="num">value</th>'
        '<th class="num">first violation (sim min)</th><th>verdict</th>'
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
        '<p class="note">evaluated at every scrape; value = last evaluation</p>'
    )


def _resample(values: list[float], columns: int) -> list[float]:
    if len(values) <= columns:
        return values
    out = []
    for c in range(columns):
        start = c * len(values) // columns
        end = max(start + 1, (c + 1) * len(values) // columns)
        chunk = values[start:end]
        out.append(sum(chunk) / len(chunk))
    return out


def _density_section(payload: Mapping[str, Any]) -> str:
    entries = _timeseries_entries(payload)
    density = {
        label[len(_DENSITY_PREFIX):-1]: entry
        for label, entry in entries.items()
        if label.startswith(_DENSITY_PREFIX)
    }
    if not density:
        return ""
    if len(density) <= MAX_OVERLAY_SERIES:
        series = [
            (unit, [float(t) for t in e["t"]], [float(v) for v in e["v"]])
            for unit, e in sorted(density.items())
        ]
        series = [(n, t, v) for n, t, v in series if v]
        if not series:
            return ""
        return f"<h2>Density over time</h2>{_svg_overlay(series)}"
    rows = []
    columns = 64
    for unit, entry in sorted(density.items())[:MAX_HEATMAP_ROWS]:
        values = [float(v) for v in entry["v"]]
        if values:
            rows.append((unit, _resample(values, columns)))
    if not rows:
        return ""
    columns = max(len(v) for _n, v in rows)
    rows = [(n, v + [v[-1]] * (columns - len(v))) for n, v in rows]
    note = ""
    if len(density) > MAX_HEATMAP_ROWS:
        note = (
            f'<p class="note">showing {MAX_HEATMAP_ROWS} of {len(density)} units '
            "(sorted by unit id)</p>"
        )
    return f"<h2>Density over time</h2>{_svg_heatmap(rows, columns)}{note}"


def _occupancy_section(payload: Mapping[str, Any]) -> str:
    cells = [
        (key.removeprefix("unit="), max(0.0, min(1.0, value)))
        for key, value in _gauge_series(payload.get("metrics", {}), _OCCUPANCY_METRIC)
    ]
    if not cells:
        return ""
    note = ""
    if len(cells) > MAX_GRID_CELLS:
        note = (
            f'<p class="note">showing {MAX_GRID_CELLS} of {len(cells)} units '
            "(sorted by unit id)</p>"
        )
        cells = cells[:MAX_GRID_CELLS]
    return (
        f"<h2>Per-unit occupancy</h2>{_svg_occupancy_grid(cells)}{note}"
        '<p class="note">shade = fraction of raw capacity occupied at the last '
        "scrape (sequential ramp, low &#8594; high)</p>"
    )


def _timeseries_section(payload: Mapping[str, Any]) -> str:
    entries = _timeseries_entries(payload)
    if not entries:
        return ""
    cards = []
    shown = 0
    for label, entry in sorted(entries.items()):
        if label.startswith(_DENSITY_PREFIX):
            continue  # already rendered in the density section
        if shown >= MAX_SPARKLINE_CARDS:
            break
        card = _sparkline_card(label, entry)
        if card:
            cards.append(card)
            shown += 1
    if not cards:
        return ""
    total = sum(1 for label in entries if not label.startswith(_DENSITY_PREFIX))
    note = ""
    if total > shown:
        note = f'<p class="note">showing {shown} of {total} collected series</p>'
    return f'<h2>Collected time series</h2><div class="cards">{"".join(cards)}</div>{note}'


def _profile_section(payload: Mapping[str, Any]) -> str:
    profile = payload.get("profile") or {}
    if not profile:
        return ""
    rows = "".join(
        f"<tr><td>{_esc(phase)}</td>"
        f'<td class="num">{int(stats["count"])}</td>'
        f'<td class="num">{float(stats["total_s"]):.6f}</td>'
        f'<td class="num">{float(stats["mean_s"]):.6f}</td>'
        f'<td class="num">{float(stats["max_s"]):.6f}</td></tr>'
        for phase, stats in sorted(profile.items(), key=lambda kv: -kv[1]["total_s"])
    )
    return (
        "<h2>Phase profile (wall-clock)</h2><table><thead><tr>"
        '<th>phase</th><th class="num">n</th><th class="num">total s</th>'
        '<th class="num">mean s</th><th class="num">max s</th>'
        f"</tr></thead><tbody>{rows}</tbody></table>"
    )


def _trace_section(payload: Mapping[str, Any]) -> str:
    """Flamegraph + critical-path panel from an exported trace shard.

    Present when the run streamed spans (``--trace-out``); the payload's
    ``"trace"`` key is a :class:`~repro.obs.traceexport.TraceArchive`
    snapshot.  The full standalone view (timeline lanes included) comes
    from ``repro-sim flamegraph``; the dashboard embeds the flamegraph
    and the straggler/critical-path summary.
    """
    trace = payload.get("trace")
    if not isinstance(trace, Mapping) or not trace.get("records"):
        return ""
    from repro.obs.traceexport import TraceArchive
    from repro.report.flamegraph import critical_path, flamegraph_svg

    archive = TraceArchive.from_dict(trace)
    result = critical_path(archive, top_k=5)
    # Exclusive time sums across shards; use the summed shard wall as
    # the share denominator so multi-shard payloads stay under 100%.
    aggregate_us = sum(wall for _shard, wall in result.shard_walls)
    rows = "".join(
        f"<tr><td>{_esc(label)}</td>"
        f'<td class="num">{int(count)}</td>'
        f'<td class="num">{self_us / 1000.0:.3f}</td>'
        f'<td class="num">'
        f"{self_us / aggregate_us * 100.0 if aggregate_us else 0.0:.1f}%</td></tr>"
        for label, self_us, count in result.top_spans
    )
    dropped = ""
    total_dropped = int(payload.get("spans_dropped", 0)) + result.dropped_spans
    if total_dropped:
        dropped = (
            f'<p class="note">{total_dropped} spans dropped by tracer/exporter '
            "bounds (aggregates stay exact)</p>"
        )
    return (
        "<h2>Trace flamegraph</h2>"
        + flamegraph_svg(archive, width=680)
        + f'<p class="note">sweep wall {result.total_us / 1e6:.3f}s &middot; '
        f"straggler shard: <strong>{_esc(result.straggler or '(none)')}</strong> "
        f"&middot; {result.span_count} spans</p>"
        "<table><thead><tr><th>span (top by exclusive time)</th>"
        '<th class="num">n</th><th class="num">self ms</th>'
        '<th class="num">share</th></tr></thead>'
        f"<tbody>{rows}</tbody></table>"
        + dropped
    )


def _histogram_section(payload: Mapping[str, Any]) -> str:
    metrics = payload.get("metrics", {})
    rows = []
    for name, metric in sorted(metrics.items()):
        if metric.get("type") != "histogram":
            continue
        for series in metric.get("series", ()):
            count = int(series.get("count", 0))
            if not count:
                continue
            buckets: dict[str, int] = series.get("buckets", {})
            bounds = sorted(
                (float(bound), int(cum))
                for bound, cum in buckets.items()
                if bound != "+Inf"
            )
            lo, hi = float(series.get("min", 0.0)), float(series.get("max", 0.0))
            quantiles = [
                quantile_from_cumulative(
                    [b for b, _c in bounds], [c for _b, c in bounds], count, lo, hi, q
                )
                for q in (0.5, 0.95, 0.99)
            ]
            labels = series.get("labels", {})
            label = (
                name
                if not labels
                else name + "{" + ",".join(f"{k}={v}" for k, v in labels.items()) + "}"
            )
            rows.append(
                f"<tr><td>{_esc(label)}</td>"
                f'<td class="num">{count}</td>'
                f'<td class="num">{_fmt(float(series.get("mean", 0.0)))}</td>'
                f'<td class="num">{_fmt(quantiles[0])}</td>'
                f'<td class="num">{_fmt(quantiles[1])}</td>'
                f'<td class="num">{_fmt(quantiles[2])}</td>'
                f'<td class="num">{_fmt(hi)}</td></tr>'
            )
    if not rows:
        return ""
    return (
        "<h2>Histogram percentiles</h2><table><thead><tr>"
        '<th>series</th><th class="num">n</th><th class="num">mean</th>'
        '<th class="num">p50</th><th class="num">p95</th><th class="num">p99</th>'
        '<th class="num">max</th>'
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


# -- entry points ---------------------------------------------------------


def render_dashboard(
    payloads: Sequence[Mapping[str, Any]], *, title: str = "repro run dashboard"
) -> str:
    """Render one self-contained HTML page over the given run payloads."""
    sections = []
    for payload in payloads:
        name = str(payload.get("experiment", "run"))
        ts = payload.get("timeseries") or {}
        scrapes = ts.get("scrape_count") if isinstance(ts, Mapping) else None
        sub = "" if not scrapes else (
            f'<p class="sub">{scrapes} registry scrapes, every '
            f'{_fmt(float(ts["interval_minutes"]))} sim-minutes</p>'
        )
        sections.append(
            f'<section><h2>== {_esc(name)} ==</h2>{sub}'
            + _tiles_section(payload)
            + _alerts_section(payload)
            + _density_section(payload)
            + _occupancy_section(payload)
            + _timeseries_section(payload)
            + _trace_section(payload)
            + _profile_section(payload)
            + _histogram_section(payload)
            + "</section>"
        )
    body = "".join(sections) or "<p>(no payloads)</p>"
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        f"<style>{_CSS}</style></head>\n"
        f"<body><h1>{_esc(title)}</h1>"
        '<p class="sub">repro.obs telemetry &mdash; self-contained, no network access '
        "required</p>"
        f"{body}"
        "<footer>generated by repro.report.dashboard &mdash; rebuild with "
        "<code>repro-sim dashboard &lt;run-dir&gt;</code></footer>"
        "</body></html>\n"
    )


def write_dashboard(
    path: str, payloads: Sequence[Mapping[str, Any]], *, title: str = "repro run dashboard"
) -> str:
    """Write :func:`render_dashboard` output to ``path``; returns ``path``."""
    import os

    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_dashboard(payloads, title=title))
    return path

"""Figure 2 — storage requirements of the single-application workload.

The paper plots the cumulative size of objects offered for storage over a
whole year under the ramping arrival rates of Section 5.1.  The
reproduction prints the cumulative series (sampled weekly), per-quarter
totals and the day a traditional 80/120 GB disk would fill.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.report.asciichart import ascii_plot
from repro.report.table import TextTable
from repro.sim.workload.single_app import SingleAppWorkload
from repro.units import days, gib, to_days, to_gib
from repro.sim.parallel import RunSpec

__all__ = ["Fig2Result", "execute", "render", "CSV_HEADERS", "csv_rows"]


@dataclass(frozen=True)
class Fig2Result:
    """Cumulative-demand series and derived milestones."""

    series: tuple[tuple[float, int], ...]  # (t_minutes, cumulative bytes)
    quarter_totals_gib: tuple[float, float, float, float]
    fill_day_80: float | None
    fill_day_120: float | None
    total_gib: float


def _run(*, horizon_days: float = 365.0, seed: int = 42) -> Fig2Result:
    """Generate the Figure 2 demand series."""
    workload = SingleAppWorkload(seed=seed)
    series: list[tuple[float, int]] = []
    total = 0
    quarter_totals = [0, 0, 0, 0]
    fill_80: float | None = None
    fill_120: float | None = None
    for obj in workload.arrivals(days(horizon_days)):
        total += obj.size
        series.append((obj.t_arrival, total))
        quarter = min(3, int(obj.t_arrival // days(91.25)))
        quarter_totals[quarter] += obj.size
        if fill_80 is None and total >= gib(80):
            fill_80 = to_days(obj.t_arrival)
        if fill_120 is None and total >= gib(120):
            fill_120 = to_days(obj.t_arrival)
    return Fig2Result(
        series=tuple(series),
        quarter_totals_gib=tuple(to_gib(q) for q in quarter_totals),  # type: ignore[arg-type]
        fill_day_80=fill_80,
        fill_day_120=fill_120,
        total_gib=to_gib(total),
    )


def render(result: Fig2Result) -> str:
    """Printable reproduction of Figure 2."""
    weekly = [
        (to_days(t), to_gib(total))
        for t, total in result.series
        if int(t) % int(days(7)) < 60  # ~one sample per week
    ]
    chart = ascii_plot(
        {"cumulative demand": weekly},
        title="Figure 2: cumulative storage demand (GiB) over one year",
        x_label="day",
        y_label="GiB",
    )
    table = TextTable(
        ["quarter", "rate cap (GiB/hr)", "offered (GiB)"],
        title="Per-quarter offered bytes",
    )
    for i, (cap, total) in enumerate(
        zip((0.5, 0.7, 1.0, 1.3), result.quarter_totals_gib), start=1
    ):
        table.add_row([f"Q{i}", cap, round(total, 1)])
    lines = [
        chart,
        "",
        table.render(),
        "",
        f"Total offered over the year: {result.total_gib:.1f} GiB",
        f"80 GiB disk full on day {result.fill_day_80:.1f}"
        if result.fill_day_80 is not None
        else "80 GiB disk never fills",
        f"120 GiB disk full on day {result.fill_day_120:.1f}"
        if result.fill_day_120 is not None
        else "120 GiB disk never fills",
    ]
    return "\n".join(lines)


CSV_HEADERS = ("t_minutes", "cumulative_bytes")


def csv_rows(result: Fig2Result) -> list[tuple]:
    """The cumulative-demand series, one row per arrival."""
    return list(result.series)


def execute(spec: RunSpec) -> Fig2Result:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs())

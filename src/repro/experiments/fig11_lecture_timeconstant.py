"""Figure 11 — Palimpsest time constant for the lecture scenario.

The lecture workload is bursty on the academic calendar (no arrivals on
breaks or weekends), so windowed arrival-rate estimates are even less
stable than for the Section 5.1 ramp: "the time constant is not a good
predictor even using a time range of a month".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.timeconstant import TimeConstantSeries
from repro.experiments.common import (
    POLICY_PALIMPSEST,
    LectureSetup,
    run_lecture_scenario,
)
from repro.experiments.fig5_timeconstant import WINDOWS, run_from_arrivals
from repro.report.asciichart import ascii_plot
from repro.report.table import TextTable
from repro.units import gib, to_days
from repro.sim.parallel import RunSpec

__all__ = ["Fig11Result", "execute", "render", "CSV_HEADERS", "csv_rows"]


@dataclass(frozen=True)
class Fig11Result:
    """Lecture-scenario time-constant series per window size."""

    capacity_gib: int
    series: dict[str, TimeConstantSeries]
    stability: dict[str, dict[str, float]]


def _run(
    *, capacity_gib: int = 80, horizon_days: float = 3 * 365.0, seed: int = 42
) -> Fig11Result:
    """Run the Palimpsest lecture scenario and estimate time constants."""
    result = run_lecture_scenario(
        LectureSetup(
            capacity_gib=capacity_gib,
            horizon_days=horizon_days,
            seed=seed,
            policy=POLICY_PALIMPSEST,
        )
    )
    fig5 = run_from_arrivals(result.recorder.arrivals, gib(capacity_gib), capacity_gib)
    return Fig11Result(
        capacity_gib=capacity_gib, series=fig5.series, stability=fig5.stability
    )


def render(result: Fig11Result) -> str:
    """Printable reproduction of Figure 11."""
    chunks: list[str] = []
    for name in WINDOWS:
        series = result.series[name]
        points = [(to_days(t), to_days(tau)) for t, tau in series.points]
        step = max(1, len(points) // 500)
        chunks.append(
            ascii_plot(
                {f"tau ({name} windows)": points[::step]},
                title=(
                    f"Figure 11 [{name}]: lecture-scenario time constant (days), "
                    f"{result.capacity_gib} GiB"
                ),
                x_label="day",
                y_label="tau (days)",
            )
        )
    table = TextTable(
        ["window", "n", "mean tau (d)", "std (d)", "CV", "empty windows"],
        title="Time-constant stability (lecture workload)",
    )
    for name, stats in result.stability.items():
        table.add_row(
            [
                name,
                int(stats.get("n", 0)),
                round(stats.get("mean", 0.0), 2),
                round(stats.get("std", 0.0), 2),
                round(stats.get("cv", 0.0), 3),
                int(stats.get("empty_windows", 0)),
            ]
        )
    chunks.append(table.render())
    return "\n\n".join(chunks)


CSV_HEADERS = ("window", "t_minutes", "tau_minutes")


def csv_rows(result: Fig11Result) -> list[tuple]:
    """One row per point of every window's time-constant series."""
    return [
        (name, t, tau)
        for name, series in result.series.items()
        for t, tau in series.points
    ]


def execute(spec: RunSpec) -> Fig11Result:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs())

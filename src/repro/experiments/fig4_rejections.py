"""Figure 4 — requests turned down because of full storage.

The paper plots, per policy and disk size, the arrivals refused because
the store was full (for their importance level).  Palimpsest never refuses
(storage is never full); the no-importance policy refuses the most; the
temporal policy sits in between, trading resident lifetimes for admission.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    ALL_POLICIES,
    SingleAppSetup,
    run_single_app_scenario,
)
from repro.report.asciichart import ascii_plot
from repro.report.table import TextTable
from repro.units import to_days
from repro.sim.parallel import RunSpec

__all__ = ["Fig4Result", "execute", "render", "CSV_HEADERS", "csv_rows"]


@dataclass(frozen=True)
class Fig4Result:
    """Cumulative rejection series and totals per (capacity, policy)."""

    cumulative: dict[tuple[int, str], tuple[tuple[float, int], ...]]
    totals: dict[tuple[int, str], int]
    arrivals: dict[tuple[int, str], int]


def _run(
    *,
    capacities_gib: tuple[int, ...] = (80, 120),
    horizon_days: float = 365.0,
    seed: int = 42,
) -> Fig4Result:
    """Run all scenarios and extract rejection series."""
    cumulative: dict[tuple[int, str], tuple[tuple[float, int], ...]] = {}
    totals: dict[tuple[int, str], int] = {}
    arrivals: dict[tuple[int, str], int] = {}
    for capacity in capacities_gib:
        for policy in ALL_POLICIES:
            setup = SingleAppSetup(
                capacity_gib=capacity,
                horizon_days=horizon_days,
                seed=seed,
                policy=policy,
            )
            result = run_single_app_scenario(setup)
            key = (capacity, policy)
            cumulative[key] = tuple(result.recorder.rejections_cumulative())
            totals[key] = len(result.recorder.rejections)
            arrivals[key] = len(result.recorder.arrivals)
    return Fig4Result(cumulative=cumulative, totals=totals, arrivals=arrivals)


def render(result: Fig4Result) -> str:
    """Printable reproduction of Figure 4."""
    capacities = sorted({cap for cap, _p in result.totals})
    chunks: list[str] = []
    for capacity in capacities:
        chart_series = {
            policy: [(to_days(t), count) for t, count in result.cumulative[(capacity, policy)]]
            for cap, policy in result.cumulative
            if cap == capacity
        }
        chunks.append(
            ascii_plot(
                chart_series,
                title=f"Figure 4 ({capacity} GiB): cumulative requests turned down",
                x_label="day",
                y_label="rejections",
            )
        )
    table = TextTable(
        ["capacity (GiB)", "policy", "rejected", "of arrivals", "rejection %"],
        title="Rejection totals",
    )
    for (capacity, policy), total in sorted(result.totals.items()):
        n = result.arrivals[(capacity, policy)]
        table.add_row(
            [capacity, policy, total, n, round(100.0 * total / n, 2) if n else 0.0]
        )
    chunks.append(table.render())
    return "\n\n".join(chunks)


CSV_HEADERS = ("capacity_gib", "policy", "t_minutes", "cumulative_rejections")


def csv_rows(result: Fig4Result) -> list[tuple]:
    """One row per point of every (capacity, policy) rejection curve."""
    return [
        (cap, policy, t, count)
        for (cap, policy), series in result.cumulative.items()
        for t, count in series
    ]


def execute(spec: RunSpec) -> Fig4Result:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs())

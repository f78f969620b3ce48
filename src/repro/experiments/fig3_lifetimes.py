"""Figure 3 — lifetimes achieved under the three policies (80 & 120 GB).

For each disk size the paper plots, against the day an object was evicted,
the lifetime it achieved: *no importance* pins the full 30 requested days
(at the top), *temporal importance* sits between, and *Palimpsest* tracks
the FIFO sojourn (lowest under pressure).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.lifetimes import bucket_lifetimes_by_eviction_day
from repro.experiments.common import (
    ALL_POLICIES,
    SingleAppSetup,
    run_single_app_scenario,
)
from repro.report.asciichart import ascii_plot
from repro.report.table import TextTable
from repro.units import to_days
from repro.sim.parallel import RunSpec

__all__ = ["Fig3Result", "execute", "render", "CSV_HEADERS", "csv_rows"]


@dataclass(frozen=True)
class Fig3Result:
    """Per-(capacity, policy) achieved-lifetime series."""

    #: ``{(capacity_gib, policy): [(bucket_day, mean_days, count), ...]}``
    series: dict[tuple[int, str], tuple[tuple[int, float, int], ...]]
    #: ``{(capacity_gib, policy): mean achieved lifetime in days}``
    mean_days: dict[tuple[int, str], float]
    first_eviction_day: dict[tuple[int, str], float | None]


def _run(
    *,
    capacities_gib: tuple[int, ...] = (80, 120),
    horizon_days: float = 365.0,
    seed: int = 42,
    bucket_days: int = 7,
) -> Fig3Result:
    """Run all (capacity × policy) scenarios and bucket achieved lifetimes."""
    series: dict[tuple[int, str], tuple[tuple[int, float, int], ...]] = {}
    means: dict[tuple[int, str], float] = {}
    firsts: dict[tuple[int, str], float | None] = {}
    for capacity in capacities_gib:
        for policy in ALL_POLICIES:
            setup = SingleAppSetup(
                capacity_gib=capacity,
                horizon_days=horizon_days,
                seed=seed,
                policy=policy,
            )
            result = run_single_app_scenario(setup)
            evictions = [
                r for r in result.recorder.evictions if r.reason == "preempted"
            ]
            key = (capacity, policy)
            series[key] = tuple(
                bucket_lifetimes_by_eviction_day(evictions, bucket_days=bucket_days)
            )
            if evictions:
                means[key] = sum(to_days(r.achieved_lifetime) for r in evictions) / len(
                    evictions
                )
                firsts[key] = to_days(min(r.t_evicted for r in evictions))
            else:
                means[key] = 0.0
                firsts[key] = None
    return Fig3Result(series=series, mean_days=means, first_eviction_day=firsts)


def render(result: Fig3Result) -> str:
    """Printable reproduction of Figure 3 (one chart per disk size)."""
    capacities = sorted({cap for cap, _p in result.series})
    chunks: list[str] = []
    for capacity in capacities:
        chart_series = {
            policy: [(day, mean) for day, mean, _n in result.series[(capacity, policy)]]
            for cap, policy in result.series
            if cap == capacity
        }
        chunks.append(
            ascii_plot(
                chart_series,
                title=f"Figure 3 ({capacity} GiB): lifetime achieved (days) vs eviction day",
                x_label="eviction day",
                y_label="achieved lifetime (days)",
            )
        )
    table = TextTable(
        ["capacity (GiB)", "policy", "mean achieved (days)", "first eviction (day)"],
        title="Achieved-lifetime summary",
    )
    for (capacity, policy), mean in sorted(result.mean_days.items()):
        first = result.first_eviction_day[(capacity, policy)]
        table.add_row(
            [capacity, policy, round(mean, 1), "-" if first is None else round(first, 1)]
        )
    chunks.append(table.render())
    return "\n\n".join(chunks)


CSV_HEADERS = ("capacity_gib", "policy", "bucket_day", "mean_days", "count")


def csv_rows(result: Fig3Result) -> list[tuple]:
    """One row per lifetime bucket of every (capacity, policy) series."""
    return [
        (cap, policy, day, mean, n)
        for (cap, policy), series in result.series.items()
        for day, mean, n in series
    ]


def execute(spec: RunSpec) -> Fig3Result:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs())

"""Figure 10 — importance at reclamation for university-created objects.

Under tremendous pressure (80 GB) the temporal policy evicts university
objects as soon as they wane below ~0.5 (the student objects' initial
level); with 120 GB the eviction threshold drops to ~0.2 — the same
annotations leverage the extra storage automatically.  Palimpsest, which
has no importance notion, is shown by *projecting* each FIFO victim's
two-step importance at its eviction instant: it reclaims high-importance
objects while retaining sub-0.5 ones — "such behavior is not preferable".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.lifetimes import bucket_importance_by_eviction_day
from repro.experiments.common import (
    POLICY_PALIMPSEST,
    POLICY_TEMPORAL,
    LectureSetup,
    run_lecture_scenario,
)
from repro.report.asciichart import ascii_plot
from repro.report.table import TextTable
from repro.sim.workload.lecture import UNIVERSITY_CREATOR
from repro.sim.parallel import RunSpec

__all__ = ["Fig10Result", "execute", "render", "CSV_HEADERS", "csv_rows"]


@dataclass(frozen=True)
class Fig10Result:
    """Reclamation-importance series per (capacity, policy)."""

    series: dict[tuple[int, str], tuple[tuple[int, float, int], ...]]
    #: Minimum importance among preempted university objects (the policy's
    #: effective eviction threshold).
    min_importance: dict[tuple[int, str], float]
    mean_importance: dict[tuple[int, str], float]
    #: Fraction of Palimpsest victims whose projected importance was >= 0.5
    #: (high-importance objects it wrongly reclaimed).
    palimpsest_high_importance_fraction: dict[int, float]


def _run(
    *,
    capacities_gib: tuple[int, ...] = (80, 120),
    horizon_days: float = 5 * 365.0,
    seed: int = 42,
    bucket_days: int = 30,
) -> Fig10Result:
    """Collect importance-at-reclamation for both policies and disk sizes."""
    series: dict[tuple[int, str], tuple[tuple[int, float, int], ...]] = {}
    minima: dict[tuple[int, str], float] = {}
    means: dict[tuple[int, str], float] = {}
    high_frac: dict[int, float] = {}
    for capacity in capacities_gib:
        for policy in (POLICY_TEMPORAL, POLICY_PALIMPSEST):
            result = run_lecture_scenario(
                LectureSetup(
                    capacity_gib=capacity,
                    horizon_days=horizon_days,
                    seed=seed,
                    policy=policy,
                )
            )
            records = [
                r
                for r in result.recorder.evictions
                if r.reason == "preempted" and r.obj.creator == UNIVERSITY_CREATOR
            ]
            key = (capacity, policy)
            series[key] = tuple(
                bucket_importance_by_eviction_day(records, bucket_days=bucket_days)
            )
            importances = [r.importance_at_eviction for r in records]
            minima[key] = min(importances) if importances else 0.0
            means[key] = sum(importances) / len(importances) if importances else 0.0
            if policy == POLICY_PALIMPSEST and importances:
                high_frac[capacity] = sum(1 for i in importances if i >= 0.5) / len(
                    importances
                )
    return Fig10Result(
        series=series,
        min_importance=minima,
        mean_importance=means,
        palimpsest_high_importance_fraction=high_frac,
    )


def render(result: Fig10Result) -> str:
    """Printable reproduction of Figure 10."""
    capacities = sorted({cap for cap, _p in result.series})
    chunks: list[str] = []
    for capacity in capacities:
        chart_series = {
            policy: [(day, imp) for day, imp, _n in result.series[(capacity, policy)]]
            for cap, policy in result.series
            if cap == capacity
        }
        chunks.append(
            ascii_plot(
                chart_series,
                title=(
                    f"Figure 10 ({capacity} GiB): importance at reclamation, "
                    "university objects"
                ),
                x_label="eviction day",
                y_label="importance at eviction",
            )
        )
    table = TextTable(
        ["capacity (GiB)", "policy", "min importance evicted", "mean importance evicted"],
        title="Reclamation-importance summary (university objects)",
    )
    for (capacity, policy), minimum in sorted(result.min_importance.items()):
        mean = result.mean_importance[(capacity, policy)]
        table.add_row([capacity, policy, round(minimum, 3), round(mean, 3)])
    chunks.append(table.render())
    for capacity, frac in sorted(result.palimpsest_high_importance_fraction.items()):
        chunks.append(
            f"Palimpsest @ {capacity} GiB reclaimed {100 * frac:.1f}% of university "
            "victims at projected importance >= 0.5 (the paper's pathology)"
        )
    return "\n\n".join(chunks)


CSV_HEADERS = ("capacity_gib", "policy", "bucket_day", "mean_importance", "count")


def csv_rows(result: Fig10Result) -> list[tuple]:
    """One row per bucket of every (capacity, policy) reclamation series."""
    return [
        (cap, policy, day, imp, n)
        for (cap, policy), series in result.series.items()
        for day, imp, n in series
    ]


def execute(spec: RunSpec) -> Fig10Result:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs())

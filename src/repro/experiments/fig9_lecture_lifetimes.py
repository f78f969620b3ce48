"""Figure 9 — lifetimes achieved in the lecture-capture scenario.

With 80 GB of local storage the university objects achieve 200–400 days
(depending on the capture semester) while student objects are squeezed to
near zero; raising capacity to 120 GB buys the students some persistence
(tens of days) without any annotation change.  A Palimpsest baseline run
shows no differentiation between the two creators.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.lifetimes import bucket_lifetimes_by_eviction_day
from repro.experiments.common import (
    POLICY_PALIMPSEST,
    POLICY_TEMPORAL,
    LectureSetup,
    run_lecture_scenario,
)
from repro.report.asciichart import ascii_plot
from repro.report.table import TextTable
from repro.sim.workload.lecture import STUDENT_CREATOR, UNIVERSITY_CREATOR
from repro.units import to_days
from repro.sim.parallel import RunSpec

__all__ = ["Fig9Result", "execute", "render", "CSV_HEADERS", "csv_rows"]

CREATORS = (UNIVERSITY_CREATOR, STUDENT_CREATOR)


@dataclass(frozen=True)
class Fig9Result:
    """Per-(capacity, creator) achieved-lifetime series, temporal policy."""

    series: dict[tuple[int, str], tuple[tuple[int, float, int], ...]]
    mean_days: dict[tuple[int, str], float]
    #: Same means under the Palimpsest baseline (no differentiation).
    palimpsest_mean_days: dict[tuple[int, str], float]


def _creator_means(recorder, creators) -> dict[str, float]:
    means = {}
    for creator in creators:
        lifetimes = [
            to_days(r.achieved_lifetime)
            for r in recorder.evictions
            if r.reason == "preempted" and r.obj.creator == creator
        ]
        means[creator] = sum(lifetimes) / len(lifetimes) if lifetimes else 0.0
    return means


def _run(
    *,
    capacities_gib: tuple[int, ...] = (80, 120),
    horizon_days: float = 5 * 365.0,
    seed: int = 42,
    bucket_days: int = 30,
) -> Fig9Result:
    """Run the lecture scenario per capacity under both policies."""
    series: dict[tuple[int, str], tuple[tuple[int, float, int], ...]] = {}
    means: dict[tuple[int, str], float] = {}
    palimpsest: dict[tuple[int, str], float] = {}
    for capacity in capacities_gib:
        result = run_lecture_scenario(
            LectureSetup(
                capacity_gib=capacity,
                horizon_days=horizon_days,
                seed=seed,
                policy=POLICY_TEMPORAL,
            )
        )
        for creator in CREATORS:
            records = [
                r
                for r in result.recorder.evictions
                if r.reason == "preempted" and r.obj.creator == creator
            ]
            series[(capacity, creator)] = tuple(
                bucket_lifetimes_by_eviction_day(records, bucket_days=bucket_days)
            )
        for creator, mean in _creator_means(result.recorder, CREATORS).items():
            means[(capacity, creator)] = mean

        baseline = run_lecture_scenario(
            LectureSetup(
                capacity_gib=capacity,
                horizon_days=horizon_days,
                seed=seed,
                policy=POLICY_PALIMPSEST,
            )
        )
        for creator, mean in _creator_means(baseline.recorder, CREATORS).items():
            palimpsest[(capacity, creator)] = mean
    return Fig9Result(series=series, mean_days=means, palimpsest_mean_days=palimpsest)


def render(result: Fig9Result) -> str:
    """Printable reproduction of Figure 9."""
    capacities = sorted({cap for cap, _c in result.series})
    chunks: list[str] = []
    for capacity in capacities:
        chart_series = {
            creator: [(day, mean) for day, mean, _n in result.series[(capacity, creator)]]
            for cap, creator in result.series
            if cap == capacity
        }
        chunks.append(
            ascii_plot(
                chart_series,
                title=(
                    f"Figure 9 ({capacity} GiB): achieved lifetime (days) by creator, "
                    "two-step importance"
                ),
                x_label="eviction day",
                y_label="achieved lifetime (days)",
            )
        )
    table = TextTable(
        [
            "capacity (GiB)",
            "creator",
            "mean achieved (d, temporal)",
            "mean achieved (d, palimpsest)",
        ],
        title="Achieved lifetimes by creator",
    )
    for (capacity, creator), mean in sorted(result.mean_days.items()):
        table.add_row(
            [
                capacity,
                creator,
                round(mean, 1),
                round(result.palimpsest_mean_days.get((capacity, creator), 0.0), 1),
            ]
        )
    chunks.append(table.render())
    return "\n\n".join(chunks)


CSV_HEADERS = ("capacity_gib", "creator", "bucket_day", "mean_days", "count")


def csv_rows(result: Fig9Result) -> list[tuple]:
    """One row per lifetime bucket of every (capacity, creator) series."""
    return [
        (cap, creator, day, mean, n)
        for (cap, creator), series in result.series.items()
        for day, mean, n in series
    ]


def execute(spec: RunSpec) -> Fig9Result:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs())

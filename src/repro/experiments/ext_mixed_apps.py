"""Extension experiment — different applications sharing one store.

The paper defers this: "We leave the study of simultaneous and different
applications vying for storage to follow up work."  This experiment runs
that follow-up at small scale: three application classes with different
annotations share a single temporal-importance disk —

* **archiver** — importance 1.0, long persistence (45 d + 45 d wane);
* **reporter** — importance 0.8, news-cycle lifetime (7 d + 7 d wane);
* **cache**    — importance 0.3, ephemeral (1 d + 1 d wane);

and the outcome shows the contract the annotations promise: under
pressure the classes are served strictly in importance order, the cache
class absorbs the storage pressure first, and nobody needs to coordinate
with anybody.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.importance import TwoStepImportance
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.report.table import TextTable
from repro.sim.recorder import Recorder
from repro.sim.runner import run_single_store
from repro.sim.workload.mixer import merge_streams
from repro.sim.workload.single_app import RateRamp, SingleAppWorkload
from repro.units import days, gib, to_days
from repro.sim.parallel import RunSpec

__all__ = [
    "AppClass",
    "MixedAppsResult",
    "APP_CLASSES",
    "execute",
    "render",
    "CSV_HEADERS",
    "csv_rows",
]


@dataclass(frozen=True)
class AppClass:
    """One application class in the mix."""

    name: str
    importance: float
    persist_days: float
    wane_days: float
    rate_cap_gib_per_hour: float

    def lifetime(self) -> TwoStepImportance:
        return TwoStepImportance(
            p=self.importance,
            t_persist=days(self.persist_days),
            t_wane=days(self.wane_days),
        )


APP_CLASSES = (
    AppClass("archiver", importance=1.0, persist_days=45, wane_days=45,
             rate_cap_gib_per_hour=0.3),
    AppClass("reporter", importance=0.8, persist_days=7, wane_days=7,
             rate_cap_gib_per_hour=0.3),
    AppClass("cache", importance=0.3, persist_days=1, wane_days=1,
             rate_cap_gib_per_hour=0.3),
)


@dataclass(frozen=True)
class MixedAppsResult:
    """Per-class outcomes of the shared-store run."""

    capacity_gib: int
    horizon_days: float
    #: per class: dict of arrivals/admitted/rejected/mean_life/satisfaction
    per_class: dict[str, dict[str, float]]
    mean_density: float


def _run(
    *,
    capacity_gib: int = 40,
    horizon_days: float = 365.0,
    seed: int = 42,
    classes: tuple[AppClass, ...] = APP_CLASSES,
) -> MixedAppsResult:
    """Run the mixed-application scenario on one shared disk."""
    store = StorageUnit(gib(capacity_gib), TemporalImportancePolicy(), name="shared")
    streams = []
    for i, app in enumerate(classes):
        workload = SingleAppWorkload(
            lifetime=app.lifetime(),
            ramp=RateRamp(caps_gib_per_hour=(app.rate_cap_gib_per_hour,)),
            seed=seed + i,
            creator=app.name,
        )
        streams.append(workload.arrivals(days(horizon_days)))
    result = run_single_store(
        store,
        merge_streams(streams),
        days(horizon_days),
        recorder=Recorder(),
    )

    per_class: dict[str, dict[str, float]] = {}
    # Each history is rebuilt into records once, not once per class.
    recorder = result.recorder
    all_arrivals, all_rejected = list(recorder.arrivals), list(recorder.rejections)
    all_evictions = list(recorder.evictions)
    for app in classes:
        arrivals = [a for a in all_arrivals if a.creator == app.name]
        rejected = [r for r in all_rejected if r.creator == app.name]
        evictions = [
            r for r in all_evictions if r.reason == "preempted" and r.creator == app.name
        ]
        lifetimes = [to_days(r.achieved_lifetime) for r in evictions]
        requested = app.persist_days + app.wane_days
        per_class[app.name] = {
            "arrivals": float(len(arrivals)),
            "admitted": float(sum(1 for a in arrivals if a.admitted)),
            "rejected": float(len(rejected)),
            "rejection_rate": len(rejected) / len(arrivals) if arrivals else 0.0,
            "mean_life_days": sum(lifetimes) / len(lifetimes) if lifetimes else 0.0,
            "mean_satisfaction": (
                sum(min(1.0, lt / requested) for lt in lifetimes) / len(lifetimes)
                if lifetimes
                else 1.0
            ),
        }
    return MixedAppsResult(
        capacity_gib=capacity_gib,
        horizon_days=horizon_days,
        per_class=per_class,
        mean_density=result.summary["mean_density"],
    )


def render(result: MixedAppsResult) -> str:
    """Printable per-class outcome table."""
    table = TextTable(
        ["class", "arrivals", "rejected", "rejection %", "mean life (d)", "satisfaction"],
        title=(
            f"Mixed applications on one {result.capacity_gib} GiB disk "
            f"({result.horizon_days:.0f} days), mean density "
            f"{result.mean_density:.3f}"
        ),
    )
    for name, stats in result.per_class.items():
        table.add_row(
            [
                name,
                int(stats["arrivals"]),
                int(stats["rejected"]),
                round(100 * stats["rejection_rate"], 2),
                round(stats["mean_life_days"], 1),
                round(stats["mean_satisfaction"], 3),
            ]
        )
    return table.render()


CSV_HEADERS = ("class", "arrivals", "rejected", "mean_life_days")


def csv_rows(result: MixedAppsResult) -> list[tuple]:
    """One row per application class."""
    return [
        (name, stats["arrivals"], stats["rejected"], stats["mean_life_days"])
        for name, stats in result.per_class.items()
    ]


def execute(spec: RunSpec) -> MixedAppsResult:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs())

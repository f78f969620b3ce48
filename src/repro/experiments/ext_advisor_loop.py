"""Extension experiment — closing the annotation feedback loop.

The paper's central usability argument (Sections 1, 5.1.2): without
feedback a user cannot pick a useful importance, so the storage must
export a signal (the density / admission threshold) that lets producers
adapt.  This experiment runs the loop both ways on the same offered load:

* **static producers** annotate every object with a fixed importance
  chosen at deploy time — three deployments (timid 0.4, middling 0.7,
  paranoid 1.0);
* an **adaptive producer** consults the
  :class:`~repro.core.advisor.AnnotationAdvisor` before each write and
  annotates just above the current admission threshold.

Measured: admission rate, achieved lifetimes and the importance "spend"
(mean annotated importance).  The adaptive producer should match the
paranoid deployment's admission rate at a fraction of its importance
spend — leaving headroom for other users instead of defaulting to 100 %,
exactly the behaviour the paper fears feedback-less users will fall into.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.advisor import AnnotationAdvisor
from repro.core.importance import TwoStepImportance
from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.report.table import TextTable
from repro.sim.recorder import Recorder
from repro.sim.runner import run_single_store
from repro.sim.workload.mixer import merge_streams
from repro.sim.workload.single_app import RateRamp, SingleAppWorkload
from repro.units import days, gib, to_days
from repro.sim.parallel import RunSpec

__all__ = ["AdvisorLoopResult", "execute", "render", "CSV_HEADERS", "csv_rows"]

#: Each producer asks for the same temporal shape; only `p` varies.
PERSIST_DAYS = 10.0
WANE_DAYS = 10.0


@dataclass(frozen=True)
class AdvisorLoopResult:
    """Per-strategy outcomes under identical offered load."""

    capacity_gib: int
    horizon_days: float
    #: ``{strategy: {admission_rate, mean_life_days, mean_importance}}``
    per_strategy: dict[str, dict[str, float]]


def _background_stream(horizon_minutes: float, seed: int):
    """Competing tenants that keep the store under steady pressure."""
    workload = SingleAppWorkload(
        lifetime=TwoStepImportance(
            p=0.8, t_persist=days(PERSIST_DAYS), t_wane=days(WANE_DAYS)
        ),
        ramp=RateRamp(caps_gib_per_hour=(0.6,)),
        seed=seed,
        creator="background",
    )
    return workload.arrivals(horizon_minutes)


def _run_strategy(
    label: str,
    importance_for,  # callable(store, now, size) -> float
    *,
    capacity_gib: int,
    horizon_days: float,
    seed: int,
) -> dict[str, float]:
    store = StorageUnit(
        gib(capacity_gib), TemporalImportancePolicy(),
        name=f"loop-{label}", keep_history=False,
    )
    recorder = Recorder()
    recorder.attach(store)
    horizon = days(horizon_days)

    # Producer writes: one 0.4 GiB object every 6 hours.
    size = gib(0.4)
    producer_times = [t * 360.0 for t in range(int(horizon // 360.0))]

    def producer_stream():
        for i, t in enumerate(producer_times):
            p = importance_for(store, t, size)
            yield StoredObject(
                size=size,
                t_arrival=t,
                lifetime=TwoStepImportance(
                    p=p, t_persist=days(PERSIST_DAYS), t_wane=days(WANE_DAYS)
                ),
                object_id=f"{label}-{i:05d}",
                creator="producer",
            )

    merged = merge_streams([
        producer_stream(), _background_stream(horizon, seed)
    ])
    run_single_store(
        store, merged, horizon, recorder=recorder, density_interval_minutes=None
    )

    produced = [a for a in recorder.arrivals if a.creator == "producer"]
    admitted = [a for a in produced if a.admitted]
    lifetimes = [
        to_days(r.achieved_lifetime)
        for r in recorder.evictions
        if r.reason == "preempted" and r.obj.creator == "producer"
    ]
    importances = [
        r.obj.lifetime.initial_importance
        for r in recorder.evictions
        if r.obj.creator == "producer"
    ]
    return {
        "offered": float(len(produced)),
        "admission_rate": len(admitted) / len(produced) if produced else 0.0,
        "mean_life_days": sum(lifetimes) / len(lifetimes) if lifetimes else 0.0,
        "mean_importance": (
            sum(importances) / len(importances) if importances else 0.0
        ),
    }


def _run(
    *, capacity_gib: int = 40, horizon_days: float = 200.0, seed: int = 42
) -> AdvisorLoopResult:
    """Compare static annotations against the advisor-driven loop."""
    per_strategy: dict[str, dict[str, float]] = {}

    for label, p in (("static-0.4", 0.4), ("static-0.7", 0.7), ("static-1.0", 1.0)):
        per_strategy[label] = _run_strategy(
            label,
            lambda _store, _now, _size, p=p: p,
            capacity_gib=capacity_gib,
            horizon_days=horizon_days,
            seed=seed,
        )

    def adaptive(store: StorageUnit, now: float, size: int) -> float:
        advisor = AnnotationAdvisor(store, target_margin=0.1)
        advice = advisor.advise(size, PERSIST_DAYS, WANE_DAYS, now)
        if not advice.achievable or advice.annotation is None:
            return 1.0  # full importance is the only remaining lever
        return advice.annotation.p

    per_strategy["adaptive"] = _run_strategy(
        "adaptive",
        adaptive,
        capacity_gib=capacity_gib,
        horizon_days=horizon_days,
        seed=seed,
    )
    return AdvisorLoopResult(
        capacity_gib=capacity_gib,
        horizon_days=horizon_days,
        per_strategy=per_strategy,
    )


def render(result: AdvisorLoopResult) -> str:
    table = TextTable(
        ["strategy", "admission rate", "mean life (d)", "mean importance spent"],
        title=(
            f"Annotation feedback loop ({result.capacity_gib} GiB shared disk, "
            f"{result.horizon_days:.0f} days, competing background tenant)"
        ),
    )
    for label, stats in result.per_strategy.items():
        table.add_row(
            [
                label,
                round(stats["admission_rate"], 3),
                round(stats["mean_life_days"], 1),
                round(stats["mean_importance"], 3),
            ]
        )
    return table.render()


CSV_HEADERS = ("strategy", "admission_rate", "mean_life_days", "mean_importance")


def csv_rows(result: AdvisorLoopResult) -> list[tuple]:
    """One row per annotation strategy."""
    return [
        (label, stats["admission_rate"], stats["mean_life_days"],
         stats["mean_importance"])
        for label, stats in result.per_strategy.items()
    ]


def execute(spec: RunSpec) -> AdvisorLoopResult:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs())

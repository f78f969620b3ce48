"""Extension experiment — the cost of Palimpsest-style rejuvenation.

The paper's core argument against Palimpsest: the system gives no
guarantee, so the *application* must predict the FIFO sojourn and refresh
in time, and the sojourn estimate (the time constant) is unreliable at
short windows (Figures 5/11).  This experiment puts a number on that
argument by running a :class:`~repro.ext.refresher.PalimpsestRefresher`
against a FIFO store under background load, sweeping both the estimation
window (hour vs day vs month) and the refresh safety factor:

* objects lost because the estimate was too optimistic;
* write amplification paid for the survivals —

against the temporal-importance alternative, where the same goal is one
annotation and zero maintenance writes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.timeconstant import estimate_time_constants
from repro.core.importance import DiracImportance
from repro.core.obj import StoredObject
from repro.core.policies.palimpsest import PalimpsestPolicy
from repro.core.store import StorageUnit
from repro.ext.refresher import PalimpsestRefresher, RefreshOutcome
from repro.report.table import TextTable
from repro.sim.recorder import ArrivalRecord, Recorder
from repro.sim.workload.single_app import SingleAppWorkload
from repro.units import MINUTES_PER_DAY, MINUTES_PER_HOUR, days, gib
from repro.sim.parallel import RunSpec

__all__ = ["RefreshResult", "execute", "render", "CSV_HEADERS", "csv_rows"]

WINDOWS = {
    "hour": float(MINUTES_PER_HOUR),
    "day": float(MINUTES_PER_DAY),
    "month": 30.0 * MINUTES_PER_DAY,
}


@dataclass(frozen=True)
class RefreshResult:
    """Outcomes per (estimation window, safety factor)."""

    capacity_gib: int
    horizon_days: float
    keep_days: float
    outcomes: dict[tuple[str, float], RefreshOutcome]


def _windowed_estimator(
    arrivals: list[ArrivalRecord], capacity_bytes: int, window_minutes: float
):
    """A client that re-estimates tau from the trailing window."""

    def estimate(now: float) -> float:
        start = max(0.0, now - window_minutes)
        series = estimate_time_constants(
            [a for a in arrivals if start <= a.t <= now],
            capacity_bytes,
            window_minutes,
            t_start=start,
            t_end=max(now, start + window_minutes),
        )
        if not series.points:
            return window_minutes  # silent window: guess blindly
        return series.points[-1][1]

    return estimate


def _run(
    *,
    capacity_gib: int = 20,
    horizon_days: float = 200.0,
    keep_days: float = 60.0,
    register_every_days: float = 5.0,
    object_gib: float = 0.5,
    safety_factors: tuple[float, ...] = (0.25, 0.5, 0.9),
    seed: int = 42,
) -> RefreshResult:
    """Sweep estimation windows × safety factors for one background load."""
    outcomes: dict[tuple[str, float], RefreshOutcome] = {}
    for window_name, window_minutes in WINDOWS.items():
        for safety in safety_factors:
            store = StorageUnit(
                gib(capacity_gib), PalimpsestPolicy(),
                name=f"fifo-{window_name}-{safety}", keep_history=False,
            )
            recorder = Recorder()
            recorder.attach(store)
            background = SingleAppWorkload(
                lifetime=DiracImportance(), seed=seed
            )
            refresher = PalimpsestRefresher(
                store,
                _windowed_estimator(recorder.arrivals, gib(capacity_gib), window_minutes),
                safety_factor=safety,
            )
            next_register = 0.0
            tick_every = days(1)
            next_tick = 0.0
            horizon = days(horizon_days)
            for obj in background.arrivals(horizon):
                now = obj.t_arrival
                while next_tick <= now:
                    refresher.tick(next_tick)
                    next_tick += tick_every
                while next_register <= now:
                    keeper = StoredObject(
                        size=gib(object_gib),
                        t_arrival=next_register,
                        lifetime=DiracImportance(),
                        object_id=(
                            f"keep-{window_name}-{safety}-{int(next_register)}"
                        ),
                        creator="refresh-client",
                    )
                    refresher.register(
                        keeper, next_register + days(keep_days), next_register
                    )
                    next_register += days(register_every_days)
                result = store.offer(obj, now)
                recorder.record_arrival(
                    now, obj.size, result.admitted, obj.creator, obj.object_id
                )
            outcomes[(window_name, safety)] = refresher.finalise(horizon)
    return RefreshResult(
        capacity_gib=capacity_gib,
        horizon_days=horizon_days,
        keep_days=keep_days,
        outcomes=outcomes,
    )


def render(result: RefreshResult) -> str:
    """Printable sweep table."""
    table = TextTable(
        ["tau window", "safety", "registered", "lost", "loss %", "refreshes",
         "write amplification"],
        title=(
            f"Palimpsest rejuvenation cost ({result.capacity_gib} GiB FIFO store, "
            f"{result.horizon_days:.0f} days, keep {result.keep_days:.0f} d/object; "
            "temporal importance needs 0 refreshes by construction)"
        ),
    )
    for (window, safety), outcome in sorted(result.outcomes.items()):
        table.add_row(
            [
                window,
                safety,
                outcome.registered,
                outcome.lost,
                round(100 * outcome.loss_fraction, 1),
                outcome.refreshes,
                round(outcome.write_amplification, 2),
            ]
        )
    return table.render()


CSV_HEADERS = ("window", "safety", "registered", "lost", "refreshes")


def csv_rows(result: RefreshResult) -> list[tuple]:
    """One row per (window, safety factor), sorted."""
    return [
        (window, safety, o.registered, o.lost, o.refreshes)
        for (window, safety), o in sorted(result.outcomes.items())
    ]


def execute(spec: RunSpec) -> RefreshResult:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs())

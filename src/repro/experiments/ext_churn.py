"""Extension experiment — desktop churn and single-copy durability.

Besteffs stores single copies on unused desktops (Section 4.1): when a
desktop leaves, its residents are simply gone.  The paper expects "the
university to continuously replace older desktops with newer desktops
that will likely host larger disks".  This experiment drives the
university workload over a churning cluster and measures what the
single-copy reliability model actually costs, and what the fleet upgrade
buys:

* objects lost to departures vs. objects reclaimed by importance;
* how the *effective* lifetime distribution shifts under churn;
* capacity growth as small disks are replaced by bigger ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.membership import ChurnManager, ChurnModel
from repro.besteffs.placement import PlacementConfig
from repro.report.table import TextTable
from repro.sim.engine import SimulationEngine, horizon_minutes
from repro.sim.recorder import Recorder
from repro.sim.workload.lecture import LectureConfig
from repro.sim.workload.university import UniversityConfig, UniversityWorkload
from repro.units import days, gib, to_days, to_gib
from repro.sim.parallel import RunSpec

__all__ = ["ChurnResult", "execute", "render", "CSV_HEADERS", "csv_rows"]


@dataclass(frozen=True)
class ChurnResult:
    """Outcomes of one churn run."""

    horizon_days: float
    churn_interval_days: float
    leave_fraction: float
    placed: int
    rejected: int
    preempted: int
    lost_to_departures: int
    lost_bytes_gib: float
    mean_lost_age_days: float
    initial_capacity_gib: float
    final_capacity_gib: float
    overlay_rebuilds: int
    final_density: float


def _run(
    *,
    nodes: int = 16,
    node_capacity_gib: int = 8,
    join_capacity_gib: int = 12,
    churn_interval_days: float = 30.0,
    leave_fraction: float = 0.10,
    joins_per_interval: int = 2,
    horizon_days: float = 365.0,
    seed: int = 7,
) -> ChurnResult:
    """Run the scaled university workload over a churning cluster."""
    config = UniversityConfig(courses=20, nodes=nodes, lecture=LectureConfig())
    workload = UniversityWorkload(config=config, seed=seed)
    recorder = Recorder()
    cluster = BesteffsCluster(
        {f"node-{i:04d}": gib(node_capacity_gib) for i in range(nodes)},
        placement=PlacementConfig(x=4, m=2),
        seed=seed,
        recorder=recorder,
    )
    manager = ChurnManager(cluster, overlay_seed=seed)
    churn = ChurnModel(
        interval_minutes=days(churn_interval_days),
        leave_fraction=leave_fraction,
        join_per_interval=joins_per_interval,
        join_capacity_bytes=gib(join_capacity_gib),
        seed=seed,
    )
    initial_capacity = cluster.capacity_bytes

    horizon = horizon_minutes(horizon_days)
    engine = SimulationEngine()
    engine.feed(workload.arrivals(horizon), cluster.offer, units=cluster.nodes.values())
    # Desktops leave and join before the arrivals of the churn's minute.
    step = days(churn_interval_days)
    engine.every(step, partial(churn.apply, manager), start_minutes=step, first=True, label="churn")
    engine.run()

    lost = manager.lost_objects()
    preempted = sum(1 for r in recorder.evictions if r.reason == "preempted")
    lost_ages = [to_days(r.achieved_lifetime) for r in lost]
    return ChurnResult(
        horizon_days=horizon_days,
        churn_interval_days=churn_interval_days,
        leave_fraction=leave_fraction,
        placed=cluster.placed_count,
        rejected=cluster.rejected_count,
        preempted=preempted,
        lost_to_departures=len(lost),
        lost_bytes_gib=to_gib(sum(r.size for r in lost)),
        mean_lost_age_days=sum(lost_ages) / len(lost_ages) if lost_ages else 0.0,
        initial_capacity_gib=to_gib(initial_capacity),
        final_capacity_gib=to_gib(cluster.capacity_bytes),
        overlay_rebuilds=manager.overlay_rebuilds,
        final_density=cluster.mean_density(horizon),
    )


def render(result: ChurnResult) -> str:
    """Printable churn summary."""
    table = TextTable(["metric", "value"], title=(
        f"Churn: {result.leave_fraction:.0%} of nodes leave every "
        f"{result.churn_interval_days:.0f} days over {result.horizon_days:.0f} days"
    ))
    table.add_row(["objects placed", result.placed])
    table.add_row(["rejected (full for importance)", result.rejected])
    table.add_row(["reclaimed by importance", result.preempted])
    table.add_row(["lost to departures (single copy)", result.lost_to_departures])
    table.add_row(["bytes lost to departures (GiB)", round(result.lost_bytes_gib, 1)])
    table.add_row(["mean age of lost objects (d)", round(result.mean_lost_age_days, 1)])
    table.add_row(["initial capacity (GiB)", round(result.initial_capacity_gib, 1)])
    table.add_row(["final capacity (GiB)", round(result.final_capacity_gib, 1)])
    table.add_row(["overlay rebuilds", result.overlay_rebuilds])
    table.add_row(["final density", round(result.final_density, 4)])
    return table.render()


CSV_HEADERS = ("metric", "value")


def csv_rows(result: ChurnResult) -> list[tuple]:
    """The placement and loss counters, one row each."""
    return [
        ("placed", result.placed),
        ("rejected", result.rejected),
        ("preempted", result.preempted),
        ("lost_to_departures", result.lost_to_departures),
    ]


def execute(spec: RunSpec) -> ChurnResult:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs())

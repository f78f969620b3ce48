"""Section 5.3 — university-wide capture over a Besteffs cluster.

The paper summarises (no figure): a 2,000-node network at 80/120 GB per
node (160/240 TB total) cannot store the ~300 TB/year the 2,321-course
capture system produces; the average importance density signals the
pressure; student videos stay squeezed at low capacity and gain storage as
capacity grows — *without changing any lifetime annotation*.

The driver runs a proportionally scaled cluster (same demand/capacity
ratio — see :meth:`~repro.sim.workload.university.UniversityConfig.scaled`)
so the reproduction completes in seconds; ``scale=1.0`` reproduces the
paper-scale deployment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.besteffs.cluster import BesteffsCluster, ClusterStats
from repro.besteffs.placement import PlacementConfig
from repro.sim.engine import SimulationEngine, horizon_minutes
from repro.sim.recorder import Recorder
from repro.sim.workload.lecture import STUDENT_CREATOR, UNIVERSITY_CREATOR
from repro.sim.workload.university import UniversityConfig, UniversityWorkload
from repro.report.table import TextTable
from repro.units import gib, to_days, to_tib
from repro.sim.parallel import RunSpec

__all__ = ["Sec53Result", "execute", "render", "CSV_HEADERS", "csv_rows"]


@dataclass(frozen=True)
class Sec53Result:
    """Cluster summaries per node capacity."""

    scale: float
    nodes: int
    courses: int
    horizon_days: float
    annual_demand_tib: float
    #: ``{node_capacity_gib: ClusterStats}``
    stats: dict[int, ClusterStats]
    #: ``{node_capacity_gib: {creator: resident bytes}}``
    by_creator: dict[int, dict[str, int]]
    #: ``{node_capacity_gib: mean achieved student lifetime (days)}``
    student_lifetime_days: dict[int, float]
    #: ``{node_capacity_gib: cluster capacity in TiB}``
    capacity_tib: dict[int, float]


def _run(
    *,
    node_capacities_gib: tuple[int, ...] = (80, 120),
    scale: float = 0.02,
    horizon_days: float = 400.0,
    seed: int = 7,
    placement: PlacementConfig | None = None,
) -> Sec53Result:
    """Run the scaled university-wide scenario per node capacity."""
    config = UniversityConfig().scaled(scale)
    stats: dict[int, ClusterStats] = {}
    by_creator: dict[int, dict[str, int]] = {}
    student_days: dict[int, float] = {}
    capacity_tib: dict[int, float] = {}
    for capacity_gib in node_capacities_gib:
        workload = UniversityWorkload(config=config, seed=seed)
        recorder = Recorder()
        cluster = BesteffsCluster(
            {f"node-{i:04d}": gib(capacity_gib) for i in range(config.nodes)},
            placement=placement if placement is not None else PlacementConfig(),
            seed=seed,
            recorder=recorder,
        )
        horizon = horizon_minutes(horizon_days)
        engine = SimulationEngine()
        engine.feed(workload.arrivals(horizon), cluster.offer, units=cluster.nodes.values())
        engine.run()
        stats[capacity_gib] = cluster.stats(horizon)
        by_creator[capacity_gib] = cluster.stored_bytes_by_creator()
        lifetimes = [
            to_days(r.achieved_lifetime)
            for r in recorder.evictions
            if r.reason == "preempted" and r.creator == STUDENT_CREATOR
        ]
        student_days[capacity_gib] = (
            sum(lifetimes) / len(lifetimes) if lifetimes else 0.0
        )
        capacity_tib[capacity_gib] = to_tib(cluster.capacity_bytes)
    return Sec53Result(
        scale=scale,
        nodes=config.nodes,
        courses=config.courses,
        horizon_days=horizon_days,
        annual_demand_tib=to_tib(
            int(UniversityWorkload(config=config, seed=seed).annual_demand_bytes())
        ),
        stats=stats,
        by_creator=by_creator,
        student_lifetime_days=student_days,
        capacity_tib=capacity_tib,
    )


def render(result: Sec53Result) -> str:
    """Printable Section 5.3 summary."""
    head = (
        f"Section 5.3 (scale={result.scale:g}): {result.courses} courses on "
        f"{result.nodes} nodes, {result.horizon_days:.0f}-day horizon; "
        f"annual demand ~{result.annual_demand_tib:.1f} TiB"
    )
    table = TextTable(
        [
            "node cap (GiB)",
            "cluster cap (TiB)",
            "placed",
            "rejected",
            "density",
            "university resident (GiB)",
            "student resident (GiB)",
            "student mean life (d)",
        ],
        title="Cluster outcomes per node capacity",
    )
    for capacity_gib, stats in sorted(result.stats.items()):
        creators = result.by_creator[capacity_gib]
        table.add_row(
            [
                capacity_gib,
                round(result.capacity_tib[capacity_gib], 2),
                stats.placed,
                stats.rejected,
                round(stats.mean_density, 4),
                round(creators.get(UNIVERSITY_CREATOR, 0) / 2**30, 1),
                round(creators.get(STUDENT_CREATOR, 0) / 2**30, 1),
                round(result.student_lifetime_days[capacity_gib], 1),
            ]
        )
    notes = [
        "Expected shapes: demand exceeds capacity at both sizes; density stays",
        "high under pressure; student residency and lifetimes grow with node",
        "capacity while every annotation stays unchanged.",
    ]
    return head + "\n\n" + table.render() + "\n\n" + "\n".join(notes)


CSV_HEADERS = ("node_capacity_gib", "placed", "rejected", "mean_density")


def csv_rows(result: Sec53Result) -> list[tuple]:
    """One row per node capacity."""
    return [
        (cap, stats.placed, stats.rejected, stats.mean_density)
        for cap, stats in result.stats.items()
    ]


def execute(spec: RunSpec) -> Sec53Result:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs())

"""Seed- and topology-sensitivity studies.

The figure reproductions run at fixed seeds; these harnesses check that
the headline results are properties of the *system*, not of a lucky seed
or a particular overlay wiring:

* :func:`seed_sweep` — replay the Section 5.1 policy comparison across
  many seeds and summarise the headline metrics (rejection counts, mean
  achieved lifetimes, densities) with their spread;
* :func:`topology_sweep` — run the same placement workload over
  random-regular, small-world and complete overlays and compare placement
  quality (the paper only requires that random walks sample well; this
  quantifies how little the topology matters once they do).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.summarize import describe
from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.overlay import Overlay
from repro.besteffs.placement import PlacementConfig
from repro.experiments.common import (
    ALL_POLICIES,
    SingleAppSetup,
    run_single_app_scenario,
)
from repro.report.table import TextTable
from repro.sim.engine import SimulationEngine, horizon_minutes
from repro.sim.workload.lecture import LectureConfig
from repro.sim.workload.university import UniversityConfig, UniversityWorkload
from repro.units import gib, to_days

__all__ = [
    "SeedSweepResult",
    "seed_sweep",
    "render_seed_sweep",
    "TopologySweepResult",
    "topology_sweep",
    "render_topology_sweep",
]


@dataclass(frozen=True)
class SeedSweepResult:
    """Headline-metric distributions across seeds."""

    seeds: tuple[int, ...]
    capacity_gib: int
    horizon_days: float
    #: ``{policy: {metric: [per-seed values]}}``
    samples: dict[str, dict[str, list[float]]]

    def summary(self, policy: str, metric: str) -> dict[str, float]:
        return describe(self.samples[policy][metric]).as_dict()


def seed_sweep(
    *,
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8),
    capacity_gib: int = 80,
    horizon_days: float = 365.0,
) -> SeedSweepResult:
    """Run the Section 5.1 comparison once per seed."""
    samples: dict[str, dict[str, list[float]]] = {
        policy: {"rejections": [], "mean_life_days": [], "mean_density": []}
        for policy in ALL_POLICIES
    }
    for seed in seeds:
        for policy in ALL_POLICIES:
            result = run_single_app_scenario(
                SingleAppSetup(
                    capacity_gib=capacity_gib,
                    horizon_days=horizon_days,
                    seed=seed,
                    policy=policy,
                )
            )
            evictions = [
                r for r in result.recorder.evictions if r.reason == "preempted"
            ]
            lifetimes = [to_days(r.achieved_lifetime) for r in evictions]
            samples[policy]["rejections"].append(
                float(len(result.recorder.rejections))
            )
            samples[policy]["mean_life_days"].append(
                sum(lifetimes) / len(lifetimes) if lifetimes else 0.0
            )
            samples[policy]["mean_density"].append(
                result.summary["mean_density"]
            )
    return SeedSweepResult(
        seeds=tuple(seeds),
        capacity_gib=capacity_gib,
        horizon_days=horizon_days,
        samples=samples,
    )


def render_seed_sweep(result: SeedSweepResult) -> str:
    table = TextTable(
        ["policy", "metric", "mean", "std", "min", "max"],
        title=(
            f"Seed sensitivity over {len(result.seeds)} seeds "
            f"({result.capacity_gib} GiB, {result.horizon_days:.0f} days)"
        ),
    )
    for policy, metrics in result.samples.items():
        for metric, values in metrics.items():
            desc = describe(values)
            table.add_row(
                [policy, metric, round(desc.mean, 2), round(desc.std, 2),
                 round(desc.minimum, 2), round(desc.maximum, 2)]
            )
    return table.render()


@dataclass(frozen=True)
class TopologySweepResult:
    """Placement quality per overlay topology."""

    nodes: int
    horizon_days: float
    #: ``{topology: {"placed": n, "rejected": n, "mean_probes": x,
    #:               "mean_density": d}}``
    per_topology: dict[str, dict[str, float]]


def topology_sweep(
    *,
    nodes: int = 24,
    node_capacity_gib: int = 8,
    horizon_days: float = 200.0,
    seed: int = 7,
) -> TopologySweepResult:
    """Run identical offered load over three overlay constructions."""
    node_ids = [f"n{i:03d}" for i in range(nodes)]
    overlays = {
        "random-regular": Overlay.random_regular(node_ids, degree=8, seed=seed),
        "small-world": Overlay.small_world(node_ids, k=8, rewire_p=0.2, seed=seed),
        "complete": Overlay.random_regular(node_ids, degree=nodes - 1, seed=seed),
    }
    config = UniversityConfig(courses=20, nodes=nodes, lecture=LectureConfig())
    horizon = horizon_minutes(horizon_days)
    per_topology: dict[str, dict[str, float]] = {}
    for name, overlay in overlays.items():
        cluster = BesteffsCluster(
            {node_id: gib(node_capacity_gib) for node_id in node_ids},
            placement=PlacementConfig(x=4, m=2),
            overlay=overlay,
            seed=seed,
        )
        workload = UniversityWorkload(config=config, seed=seed)
        engine = SimulationEngine()
        engine.feed(workload.arrivals(horizon), cluster.offer, units=cluster.nodes.values())
        engine.run()
        stats = cluster.stats(horizon)
        per_topology[name] = {
            "placed": float(stats.placed),
            "rejected": float(stats.rejected),
            "mean_probes": stats.mean_probes,
            "mean_density": stats.mean_density,
        }
    return TopologySweepResult(
        nodes=nodes, horizon_days=horizon_days, per_topology=per_topology
    )


def render_topology_sweep(result: TopologySweepResult) -> str:
    table = TextTable(
        ["topology", "placed", "rejected", "probes/offer", "density"],
        title=(
            f"Overlay-topology sensitivity ({result.nodes} nodes, "
            f"{result.horizon_days:.0f} days)"
        ),
    )
    for name, stats in result.per_topology.items():
        table.add_row(
            [name, int(stats["placed"]), int(stats["rejected"]),
             round(stats["mean_probes"], 2), round(stats["mean_density"], 4)]
        )
    return table.render()

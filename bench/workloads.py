"""The four benchmark workloads: what runs, how big, and how it is checked.

Each workload is fixed *work*, not fixed time: a child's seconds scale the
simulated horizon through :attr:`Workload.days_per_second` (calibrated on
the 2-core reference box so the untraced entry-point call lasts about
that long), so a seed maps to one byte-exact outcome and a faster
program finishes sooner instead of doing more.

Sizing notes (seed 42, 10 s per child): ``serve_pressure`` ≈ 49k requests,
``serve_flash`` ≈ 61k requests, ``sim_cluster`` ≈ 42k arrivals,
``sim_single`` ≈ 70k arrivals against ≈ 7.6k residents.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["WORKLOADS", "Outcome", "Workload"]


@dataclass
class Outcome:
    """What a finished run produced, reduced to checkable facts."""

    attempted: int
    failed: int
    #: Everything the digest hashes (printed next to it).
    facts: dict[str, Any]
    #: ``(name, holds)`` — any False exits the benchmark non-zero.
    invariants: list[tuple[str, bool]]
    #: Exact counts the per-layer metrics report (0 where a layer is absent).
    counts: dict[str, float]

    @property
    def digest(self) -> str:
        blob = json.dumps(self.facts, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Simulated days whose untraced run takes one second on the reference box.
    days_per_second: float
    #: ``module:Class.method`` clocked per operation for ``latency_*_us``.
    latency_site: str
    #: ``(seed, horizon_days) -> run``; construction is set-up, ``run()`` is timed.
    build: Callable[[int, float], Callable[[], Any]]
    #: ``(result of run(), operations clocked, clusters built) -> Outcome``.
    outcome: Callable[[Any, int, list], Outcome]


# -- serving ----------------------------------------------------------------


def _build_serve(spec_kwargs: dict[str, Any]) -> Callable[[int, float], Callable[[], Any]]:
    def build(seed: int, horizon_days: float) -> Callable[[], Any]:
        from repro.api import LoadGenSpec, run_loadgen

        spec = LoadGenSpec(seed=seed, horizon_days=horizon_days, **spec_kwargs)
        # jobs=1: shards run sequentially in this process, so one thread
        # generates load and the clocks measure serving, not contention.
        return lambda: run_loadgen(spec, jobs=1)

    return build


def _unit_invariants(clusters: list) -> list[tuple[str, bool]]:
    stores = [node.store for cluster in clusters for node in cluster.nodes.values()]
    return [
        (
            "used_bytes <= capacity_bytes on every unit",
            all(store.used_bytes <= store.capacity_bytes for store in stores),
        ),
        (
            "used_bytes == sum of resident sizes on every unit",
            all(
                store.used_bytes == sum(obj.size for obj in store.iter_residents())
                for store in stores
            ),
        ),
    ]


def _serve_outcome(report: Any, clocked: int, clusters: list) -> Outcome:
    statuses = dict(sorted(report.responses_by_status.items()))
    shed = dict(sorted(report.shed_by_reason.items()))
    refusals = dict(sorted(report.refusals.items()))
    ledger = report.ledger
    ledger_bytes = ledger.canonical_bytes()
    if hasattr(ledger, "entries"):
        request_ids = [entry.request.request_id for entry in ledger.entries]
    else:
        request_ids = [entry["request"]["request_id"] for entry in ledger.entry_dicts()]
    # Backpressure sheds and queue expiries are the service failing its
    # caller; auth/fairness/placement rejections are the paper's designed
    # outcomes and are digest-checked, not failures.  (An exception in a
    # submit propagates out of run_loadgen and fails the whole run.)
    answered_once = sum(1 for n in Counter(request_ids).values() if n == 1)
    failed = (
        statuses.get("shed-backpressure", 0)
        + statuses.get("expired-in-queue", 0)
        + (report.requests - answered_once)
    )
    stats = report.cluster
    queued = report.requests - sum(shed.values())
    return Outcome(
        attempted=report.requests,
        failed=failed,
        facts={
            "ledger_sha256": hashlib.sha256(ledger_bytes).hexdigest(),
            "statuses": statuses,
            "shed": shed,
            "refusals": refusals,
            "coalesced": report.coalesced,
            "deduped": report.deduped,
            "spilled": report.spilled,
            "cluster": [stats.placed, stats.rejected, stats.resident_objects,
                        stats.used_bytes, stats.capacity_bytes],
        },
        invariants=[
            ("exactly one terminal response per request id",
             answered_once == report.requests == len(request_ids)),
            ("every submit returned", clocked == report.requests),
            ("admitted + refused + failed == attempted",
             sum(statuses.values()) == report.requests),
            *_unit_invariants(clusters),
        ],
        counts={
            "requests": report.requests,
            "batches": report.batches,
            "batch_size_mean": queued / report.batches if report.batches else 0.0,
            "coalesced": report.coalesced,
            "deduped": report.deduped,
            "queue_peak": report.queue_peak,
            "shed": sum(shed.values()),
            "spilled": report.spilled,
            "refused_fairness": refusals.get("fairness", 0),
            "refused_placement": refusals.get("placement", 0),
            "fairness_transactions": report.fairness_transactions,
            "ledger_bytes": len(ledger_bytes),
            "placed": stats.placed,
            "rejected": stats.rejected,
            "evictions": sum(
                node.store.evicted_count
                for cluster in clusters
                for node in cluster.nodes.values()
            ),
            # What LoadGenReport itself calls wall/throughput: on sharded
            # runs the slowest shard's serve loop only (README, "wall_s").
            "report_wall_s": report.wall_seconds,
            "report_ops_per_s": report.ops_per_sec,
        },
    )


# -- simulation -------------------------------------------------------------

_SIM_CLUSTER_NODE_GIB = 40


def _build_sim_cluster(seed: int, horizon_days: float) -> Callable[[], Any]:
    from repro.api import RunSpec, run_experiment

    spec = RunSpec(
        "sec53",
        params={"scale": 0.05, "node_capacities_gib": (_SIM_CLUSTER_NODE_GIB,)},
        seed=seed,
        horizon_days=horizon_days,
    )
    return lambda: run_experiment(spec)


def _sim_cluster_outcome(result: Any, clocked: int, clusters: list) -> Outcome:
    stats = result.stats[_SIM_CLUSTER_NODE_GIB]
    by_creator = dict(sorted(result.by_creator[_SIM_CLUSTER_NODE_GIB].items()))
    return Outcome(
        attempted=clocked,
        failed=abs(clocked - (stats.placed + stats.rejected)),
        facts={
            "cluster": [stats.nodes, stats.capacity_bytes, stats.used_bytes,
                        stats.resident_objects, stats.placed, stats.rejected,
                        stats.mean_density, stats.mean_rounds, stats.mean_probes],
            "bytes_by_creator": by_creator,
        },
        invariants=[
            ("placed + rejected == arrivals offered",
             stats.placed + stats.rejected == clocked),
            ("resident bytes by creator sum to used_bytes",
             sum(by_creator.values()) == stats.used_bytes),
            *_unit_invariants(clusters),
        ],
        counts={
            "placed": stats.placed,
            "rejected": stats.rejected,
            "evictions": sum(
                node.store.evicted_count
                for cluster in clusters
                for node in cluster.nodes.values()
            ),
        },
    )


def _build_sim_single(seed: int, horizon_days: float) -> Callable[[], Any]:
    from repro.api import Recorder, StorageUnit, TemporalImportancePolicy, run_single_store
    from repro.sim.workload.university import UniversityConfig, UniversityWorkload
    from repro.units import days, gib

    store = StorageUnit(gib(4000), TemporalImportancePolicy(), keep_history=False)
    workload = UniversityWorkload(config=UniversityConfig().scaled(0.05), seed=seed)
    horizon = days(horizon_days)
    return lambda: run_single_store(
        store,
        workload.arrivals(horizon),
        horizon,
        recorder=Recorder(),
        density_interval_minutes=days(1),
    )


def _sim_single_outcome(result: Any, clocked: int, clusters: list) -> Outcome:
    store, recorder = result.store, result.recorder
    stats = store.stats()
    by_creator = dict(sorted(store.bytes_by_creator().items()))
    samples = recorder.density_samples
    return Outcome(
        attempted=clocked,
        failed=abs(clocked - stats.offered_count),
        facts={
            "store": [stats.capacity_bytes, stats.used_bytes, stats.resident_count,
                      stats.accepted_count, stats.rejected_count, stats.evicted_count,
                      stats.bytes_accepted, stats.bytes_evicted, stats.bytes_rejected],
            "bytes_by_creator": by_creator,
            "density_samples": len(samples),
            "density_sum": sum(sample.density for sample in samples),
        },
        invariants=[
            ("accepted + rejected == arrivals offered", stats.offered_count == clocked),
            ("every arrival recorded", len(recorder.arrivals) == clocked),
            ("used_bytes <= capacity_bytes", stats.used_bytes <= stats.capacity_bytes),
            ("used_bytes == sum of resident sizes",
             stats.used_bytes == sum(obj.size for obj in store.iter_residents())),
            ("accepted - evicted == residents",
             stats.accepted_count - stats.evicted_count == stats.resident_count),
        ],
        counts={"evictions": stats.evicted_count},
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="serve_pressure",
            why=(
                "demand exceeds capacity on the single-gateway path, so placement, "
                "admission, index and victim selection dominate; exercises what "
                "serve_flash bypasses"
            ),
            days_per_second=48.0,
            latency_site="repro.serve.service:GatewayService.submit",
            build=_build_serve(
                dict(workload="university", mode="closed", clients=4, shards=1,
                     nodes=100, node_capacity_gib=40, scale=0.05,
                     budget_gib_days=1e9)
            ),
            outcome=_serve_outcome,
        ),
        Workload(
            name="serve_flash",
            why=(
                "ample capacity, >=70% of requests coalesced or deduped on the 4-shard "
                "path, so stream rebuild, routing, auth, ledger JSON and asyncio "
                "dominate; bypasses victim selection"
            ),
            days_per_second=10.7,
            latency_site="repro.serve.service:GatewayService.submit",
            build=_build_serve(
                dict(workload="flashcrowd", mode="closed", clients=16, shards=4,
                     nodes=16, node_capacity_gib=800, scale=0.05, burst_factor=4,
                     hot_objects=64, high_water=16, window_minutes=720,
                     budget_gib_days=1e9)
            ),
            outcome=_serve_outcome,
        ),
        Workload(
            name="sim_cluster",
            why=(
                "same placement and store layers as serve_pressure without "
                "asyncio/auth/fairness/ledger: a serve-layer change must not move it, a "
                "placement change must move both"
            ),
            days_per_second=43.0,
            latency_site="repro.besteffs.cluster:BesteffsCluster.offer",
            build=_build_sim_cluster,
            outcome=_sim_cluster_outcome,
        ),
        Workload(
            name="sim_single",
            why=(
                "one deep 4000 GiB unit driven by the engine with daily density reads and "
                "no placement: catches gains for shallow stores or writes that cost deep "
                "stores or reads"
            ),
            days_per_second=72.0,
            latency_site="repro.core.store:StorageUnit.offer",
            build=_build_sim_single,
            outcome=_sim_single_outcome,
        ),
    )
}

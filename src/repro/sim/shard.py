"""Sharded cluster simulation for the mega-university scenario.

A paper-scale (or larger) Besteffs deployment does not fit one event loop
comfortably: Section 5.4's mega-university drives 50k+ storage units and
millions of arrivals.  This module partitions the university into
``shards`` — contiguous slices of both the node population and the course
catalogue — and runs each shard as an independent discrete-event
simulation.  Shards are self-contained :class:`~repro.sim.parallel.RunSpec`
runs ("sec54-shard" in the experiment registry), so the existing parallel
executor provides worker-process isolation, and ``--jobs 1`` versus
``--jobs N`` is byte-identical by construction:
:func:`~repro.sim.parallel.run_shards` returns every shard's typed
:class:`ShardRun` in shard-id order regardless of completion order.

Inside a shard the run is an epoch loop on a
:class:`~repro.sim.engine.SimulationEngine`:

* a *pump* event at each epoch start drains the workload iterator for the
  epoch and schedules one arrival event per capture (whole-minute
  timestamps, so runs of same-timestamp arrivals exercise the engine's
  batched dispatch);
* a *barrier* event at each epoch end summarises the shard — placement
  counters, occupancy, per-creator residency, and the capacity-weighted
  density mass the cluster-wide gossip average is folded from — into a
  picklable :class:`EpochDigest`.

The epoch digests are the shard's only output (per-object history is off;
resident state rides in the stores' own resident records).  The parent merges the
digests at each barrier in shard-id order — integer counters add, density
folds as ``sum(weighted) / sum(capacity)`` — so the merged artifact is
deterministic and identical however the shards were scheduled.

Seeds derive per shard from the spec seed via SHA-256
(:func:`shard_seed`), never from worker identity, so a shard's stream is
a pure function of ``(seed, shard, shards)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.placement import PlacementConfig
from repro.core.density import importance_density
from repro.core.obj import StoredObject
from repro.errors import SimulationError
from repro.report.table import TextTable
from repro.sim.engine import SimulationEngine
from repro.sim.parallel import RunSpec
from repro.sim.workload.lecture import STUDENT_CREATOR, UNIVERSITY_CREATOR
from repro.sim.workload.university import (
    PAPER_COURSES,
    PAPER_NODES,
    UniversityConfig,
    UniversityWorkload,
)
from repro.units import days, gib

__all__ = [
    "CSV_HEADERS",
    "EpochDigest",
    "ShardRun",
    "csv_rows",
    "execute",
    "mega_courses",
    "render",
    "run_shard",
    "shard_seed",
    "shard_slice",
]

#: Barrier events run before the next epoch's pump at the same timestamp.
BARRIER_PRIORITY = -10
PUMP_PRIORITY = -5


def shard_slice(total: int, shards: int, shard: int) -> tuple[int, int]:
    """Contiguous balanced partition: ``(start, count)`` of shard ``shard``.

    The first ``total % shards`` shards hold one extra element, so counts
    differ by at most one and concatenating all slices in shard order
    reproduces ``range(total)`` exactly.
    """
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards}")
    if not 0 <= shard < shards:
        raise SimulationError(f"shard must be in [0, {shards}), got {shard}")
    base, extra = divmod(total, shards)
    count = base + (1 if shard < extra else 0)
    start = shard * base + min(shard, extra)
    return start, count


def shard_seed(seed: int, shard: int, shards: int) -> int:
    """Deterministic 63-bit seed of one shard's workload and cluster RNG.

    Derived from the base seed and the shard coordinates alone — never
    from worker identity — so a shard's arrival stream is a pure function
    of ``(seed, shard, shards)`` wherever it executes.
    """
    ident = f"sec54|{seed}|{shards}|{shard}".encode()
    return int.from_bytes(hashlib.sha256(ident).digest()[:8], "big") >> 1


def mega_courses(nodes: int) -> int:
    """Course count scaling the paper's catalogue to ``nodes`` units.

    Preserves the paper's demand/capacity shape: 2,321 courses per 2,000
    nodes, rounded.
    """
    return max(1, round(PAPER_COURSES * nodes / PAPER_NODES))


@dataclass(frozen=True)
class EpochDigest:
    """One shard's summary at an epoch barrier (picklable scalars only).

    ``density_weighted`` is ``sum(density_i * capacity_i)`` over the
    shard's units — the numerator of the capacity-weighted mean — so the
    parent folds shard digests into the cluster-wide density exactly as
    :meth:`~repro.besteffs.cluster.BesteffsCluster.mean_density` would
    have computed it over the union of the units.
    """

    epoch: int
    t_minutes: float
    placed: int
    rejected: int
    evicted: int
    resident: int
    used_bytes: int
    density_weighted: float
    university_bytes: int
    student_bytes: int

    def as_row(self, shard: int) -> tuple:
        return (
            shard,
            self.epoch,
            self.t_minutes,
            self.placed,
            self.rejected,
            self.evicted,
            self.resident,
            self.used_bytes,
            self.density_weighted,
            self.university_bytes,
            self.student_bytes,
        )


#: CSV header matching :meth:`EpochDigest.as_row`.
CSV_HEADERS = (
    "shard",
    "epoch",
    "t_minutes",
    "placed",
    "rejected",
    "evicted",
    "resident",
    "used_bytes",
    "density_weighted",
    "university_bytes",
    "student_bytes",
)


@dataclass(frozen=True)
class ShardRun:
    """Everything one shard reports back to the merge step."""

    shard: int
    shards: int
    nodes: int
    courses: int
    capacity_bytes: int
    epoch_days: float
    horizon_days: float
    arrivals: int
    dispatched: int
    digests: tuple[EpochDigest, ...]


def run_shard(
    *,
    shard: int = 0,
    shards: int = 4,
    nodes: int = 2000,
    node_capacity_gib: float = 2.0,
    epoch_days: float = 5.0,
    horizon_days: float = 30.0,
    seed: int = 11,
    courses: int | None = None,
    placement: PlacementConfig | None = None,
) -> ShardRun:
    """Simulate one shard of the mega-university for the full horizon.

    ``nodes`` and ``courses`` are the *total* (all-shard) scale; the
    shard's own slice is derived with :func:`shard_slice`.  Per-object
    history is disabled and no recorder is attached — at mega scale the
    epoch digests are the whole product.
    """
    epochs = horizon_days / epoch_days
    if epochs != int(epochs) or epochs < 1:
        raise SimulationError(
            f"horizon_days={horizon_days} must be a positive multiple of "
            f"epoch_days={epoch_days}"
        )
    epochs = int(epochs)
    total_courses = mega_courses(nodes) if courses is None else courses
    node_start, node_count = shard_slice(nodes, shards, shard)
    course_start, course_count = shard_slice(total_courses, shards, shard)
    if node_count < 1 or course_count < 1:
        raise SimulationError(
            f"shard {shard}/{shards} is empty ({node_count} nodes, "
            f"{course_count} courses); use fewer shards"
        )
    local_seed = shard_seed(seed, shard, shards)
    config = UniversityConfig(courses=course_count, nodes=node_count)
    workload = UniversityWorkload(config=config, seed=local_seed)
    capacity = gib(node_capacity_gib)
    cluster = BesteffsCluster(
        {
            f"s{shard:03d}-n{node_start + i:06d}": capacity
            for i in range(node_count)
        },
        placement=placement if placement is not None else PlacementConfig(),
        seed=local_seed,
        keep_history=False,
    )

    engine = SimulationEngine()
    epoch_minutes = days(epoch_days)
    horizon = days(horizon_days)
    stream = workload.arrivals(horizon)
    lookahead: list[StoredObject] = []  # one-object pushback buffer
    arrivals = 0
    digests: list[EpochDigest] = []

    def offer(now: float, obj: StoredObject) -> None:
        cluster.offer(obj, now)

    def make_pump(end_minutes: float):
        def pump(_now: float) -> None:
            nonlocal arrivals
            while True:
                obj = lookahead.pop() if lookahead else next(stream, None)
                if obj is None:
                    return
                if obj.t_arrival >= end_minutes:
                    lookahead.append(obj)
                    return
                arrivals += 1
                engine.schedule_at(
                    obj.t_arrival,
                    lambda now, obj=obj: offer(now, obj),
                    label="arrival",
                )

        return pump

    def barrier(now: float, epoch: int) -> None:
        used = 0
        resident = 0
        evicted = 0
        weighted = 0.0
        for node in cluster.nodes.values():
            store = node.store
            used += store.used_bytes
            resident += store.resident_count
            evicted += store.evicted_count
            weighted += importance_density(store, now) * node.capacity_bytes
        creators = cluster.stored_bytes_by_creator()
        digests.append(
            EpochDigest(
                epoch=epoch,
                t_minutes=now,
                placed=cluster.placed_count,
                rejected=cluster.rejected_count,
                evicted=evicted,
                resident=resident,
                used_bytes=used,
                density_weighted=weighted,
                university_bytes=creators.get(UNIVERSITY_CREATOR, 0),
                student_bytes=creators.get(STUDENT_CREATOR, 0),
            )
        )

    for k in range(epochs):
        engine.schedule_at(
            k * epoch_minutes, make_pump((k + 1) * epoch_minutes),
            priority=PUMP_PRIORITY, label="pump",
        )
        engine.schedule_at(
            (k + 1) * epoch_minutes,
            lambda now, epoch=k + 1: barrier(now, epoch),
            priority=BARRIER_PRIORITY, label="barrier",
        )
    engine.run(horizon)
    return ShardRun(
        shard=shard,
        shards=shards,
        nodes=node_count,
        courses=course_count,
        capacity_bytes=cluster.capacity_bytes,
        epoch_days=epoch_days,
        horizon_days=horizon_days,
        arrivals=arrivals,
        dispatched=engine.dispatched,
        digests=tuple(digests),
    )


def render(run: ShardRun) -> str:
    """Printable single-shard summary (standalone ``sec54-shard`` runs)."""
    head = (
        f"Shard {run.shard}/{run.shards}: {run.nodes} nodes, {run.courses} "
        f"courses, {run.horizon_days:g}-day horizon in {run.epoch_days:g}-day "
        f"epochs; {run.arrivals} arrivals, {run.dispatched} events"
    )
    table = TextTable(
        ["epoch", "day", "placed", "rejected", "evicted", "resident", "density"],
        title="Per-epoch shard digests",
    )
    for digest in run.digests:
        table.add_row(
            [
                digest.epoch,
                round(digest.t_minutes / 1440.0, 1),
                digest.placed,
                digest.rejected,
                digest.evicted,
                digest.resident,
                round(digest.density_weighted / run.capacity_bytes, 4),
            ]
        )
    return head + "\n\n" + table.render()


def csv_rows(run: ShardRun) -> list[tuple]:
    """The shard's epoch digests, one row each."""
    return [digest.as_row(run.shard) for digest in run.digests]


def execute(spec: RunSpec) -> ShardRun:
    """Run one shard from a :class:`RunSpec` (the registry entry point)."""
    return run_shard(**spec.call_kwargs())

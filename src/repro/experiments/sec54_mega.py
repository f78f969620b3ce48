"""Section 5.4 (extension) — the mega-university on a sharded cluster.

Scales the Section 5.3 scenario an order of magnitude past the paper: a
50,000-node deployment capturing a proportionally scaled course catalogue
(~58k courses, millions of arrivals over the horizon).  One event loop
cannot hold that comfortably, so the run is decomposed into independent
shards (:mod:`repro.sim.shard`): each shard simulates a contiguous slice
of nodes and courses on its own engine, emitting per-epoch digests at
barrier events, and this module merges the digests — in shard-id order,
integer counters adding and density folding as weighted mass over total
capacity — into the cluster-wide epoch table.  Each shard comes back as
its typed :class:`~repro.sim.shard.ShardRun` through
:func:`~repro.sim.parallel.run_shards`, so arrivals and dispatched events
are the shards' own counts, not derived from the digests.

Determinism contract: the merged artifact is a pure function of the spec
(nodes, shards, capacity, epochs, horizon, seed).  ``jobs`` only selects
how shard specs are executed (inline or worker processes) and never
appears in the rendered artifact; ``--jobs 1`` and ``--jobs N`` produce
byte-identical output because shard seeds derive from shard ids and the
parallel executor preserves submission order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.report.table import TextTable
from repro.sim.parallel import RunSpec, run_shards
from repro.sim.shard import CSV_HEADERS, ShardRun, mega_courses
from repro.units import gib, to_tib

__all__ = ["CSV_HEADERS", "Sec54Result", "csv_rows", "execute", "render"]


@dataclass(frozen=True)
class Sec54Result:
    """Merged mega-university outcome."""

    nodes: int
    shards: int
    courses: int
    node_capacity_gib: float
    epoch_days: float
    horizon_days: float
    seed: int
    capacity_bytes: int
    arrivals: int
    dispatched: int
    #: Merged per-epoch rows: ``(epoch, day, placed, rejected, evicted,
    #: resident, used_tib, density, university_tib, student_tib)``.
    epochs: tuple[tuple, ...]
    #: Raw per-shard digest rows (shard-id order; ``CSV_HEADERS``).
    shard_rows: tuple[tuple, ...]
    #: ``(shard, nodes, courses, arrivals, dispatched)`` per shard.
    shard_summary: tuple[tuple[int, int, int, int, int], ...]


def _run(
    *,
    nodes: int = 2000,
    shards: int = 4,
    node_capacity_gib: float = 2.0,
    epoch_days: float = 5.0,
    horizon_days: float = 30.0,
    seed: int = 11,
    jobs: int = 1,
) -> Sec54Result:
    """Run all shards (inline or in worker processes) and merge digests.

    The defaults are the *reduced* scale — the paper's 2,000-node
    university in four shards, seconds to run — so ``repro run
    sec54-mega`` (and ``run all``) stay interactive.  The full mega
    scale (50,000 nodes, 8 shards, 60-day horizon, ~3.2 M arrivals) is
    what the committed ``BENCH_test_sec54_mega.json`` baseline pins; run
    it with ``make bench-mega``.
    """
    if shards < 1:
        raise ReproError(f"shards must be >= 1, got {shards}")
    params = dict(
        shards=shards, nodes=nodes, node_capacity_gib=node_capacity_gib, epoch_days=epoch_days
    )
    runs: list[ShardRun] = run_shards(
        "sec54-shard", params, shards, seed=seed, horizon_days=horizon_days, jobs=jobs
    )
    capacity_bytes = nodes * gib(node_capacity_gib)
    epochs_out = []
    # One barrier at a time, shards in shard-id order (run_shards' order),
    # so float folds are deterministic whatever the worker scheduling was.
    # Every shard digests the same epochs; ``strict`` holds them to it.
    for digests in zip(*(run.digests for run in runs), strict=True):
        epoch, t_minutes = digests[0].epoch, digests[0].t_minutes
        if any(digest.t_minutes != t_minutes for digest in digests):
            raise ReproError(f"epoch {epoch} barrier time skew across shards")
        # Every digest column after (shard, epoch, t_minutes) adds up.
        placed, rejected, evicted, resident, used, weighted, uni, stu = (
            sum(column) for column in zip(*(d.as_row(0)[3:] for d in digests))
        )
        epochs_out.append(
            (
                epoch,
                t_minutes / 1440.0,
                placed,
                rejected,
                evicted,
                resident,
                to_tib(used),
                weighted / capacity_bytes,
                to_tib(uni),
                to_tib(stu),
            )
        )
    return Sec54Result(
        nodes=nodes,
        shards=shards,
        courses=mega_courses(nodes),
        node_capacity_gib=node_capacity_gib,
        epoch_days=epoch_days,
        horizon_days=horizon_days,
        seed=seed,
        capacity_bytes=capacity_bytes,
        arrivals=sum(run.arrivals for run in runs),
        dispatched=sum(run.dispatched for run in runs),
        epochs=tuple(epochs_out),
        shard_rows=tuple(
            digest.as_row(run.shard) for run in runs for digest in run.digests
        ),
        shard_summary=tuple(
            (run.shard, run.nodes, run.courses, run.arrivals, run.dispatched)
            for run in runs
        ),
    )


def render(result: Sec54Result) -> str:
    """Printable mega-university report.

    Deliberately independent of ``jobs`` (and any other execution detail):
    the artifact must hash identically for inline and worker-pool runs.
    """
    head = (
        f"Section 5.4 (mega-university): {result.courses} courses on "
        f"{result.nodes} nodes in {result.shards} shards "
        f"({result.node_capacity_gib:g} GiB/node, "
        f"{to_tib(result.capacity_bytes):.1f} TiB total); "
        f"{result.horizon_days:g}-day horizon in {result.epoch_days:g}-day "
        f"epochs; {result.arrivals} arrivals"
    )
    table = TextTable(
        [
            "epoch",
            "day",
            "placed",
            "rejected",
            "evicted",
            "resident",
            "used (TiB)",
            "density",
            "university (TiB)",
            "student (TiB)",
        ],
        title="Cluster-wide per-epoch outcomes (merged across shards)",
    )
    for (epoch, day, placed, rejected, evicted, resident, used_tib, density,
         uni_tib, stu_tib) in result.epochs:
        table.add_row(
            [
                epoch,
                round(day, 1),
                placed,
                rejected,
                evicted,
                resident,
                round(used_tib, 2),
                round(density, 4),
                round(uni_tib, 2),
                round(stu_tib, 2),
            ]
        )
    shard_table = TextTable(
        ["shard", "nodes", "courses", "arrivals"],
        title="Shard partition",
    )
    for shard, shard_nodes, shard_courses, shard_arrivals, _dispatched in (
        result.shard_summary
    ):
        shard_table.add_row([shard, shard_nodes, shard_courses, shard_arrivals])
    notes = [
        "Shards simulate disjoint node/course slices independently between",
        "epoch barriers; digests merge in shard-id order, so the table is",
        "identical for --jobs 1 and --jobs N.",
    ]
    return (
        head + "\n\n" + table.render() + "\n\n" + shard_table.render()
        + "\n\n" + "\n".join(notes)
    )


def csv_rows(result: Sec54Result) -> list[tuple]:
    """Every shard's raw epoch digests, in shard-id order (the shard CSV's columns)."""
    return list(result.shard_rows)


def execute(spec: RunSpec) -> Sec54Result:
    """Run the mega-university from a :class:`RunSpec`."""
    return _run(**spec.call_kwargs())

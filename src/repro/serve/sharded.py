"""The one serving path: route → per-shard serve → merge.

A :class:`~repro.serve.loadgen.LoadGenSpec` partitions the Besteffs
cluster into ``spec.shards`` contiguous node slices
(:func:`repro.sim.shard.shard_slice`), fronts each slice with its own
:class:`~repro.serve.service.GatewayService`, and routes every request
deterministically with :mod:`repro.serve.router`.  One shard is the
degenerate fleet, not a second path: the same code serves it, and
:func:`~repro.serve.loadgen.run_loadgen` is :func:`run_sharded`.  Each
shard is a self-contained :class:`~repro.sim.parallel.RunSpec` run
("serve-shard" in the experiment registry), so the existing parallel
executor provides worker-process isolation and ``--jobs 1`` versus
``--jobs N`` is byte-identical by construction.

The request stream and the routing plan are shard-independent — both are
pure functions of the spec — so a process builds them **once** and every
shard it executes serves its slice of that one copy:

1. the first ``serve-shard`` spec a process executes generates the full
   seeded request stream and runs :func:`~repro.serve.router.plan_routes`
   over it with the shared :class:`~repro.serve.router.RouterConfig`
   (:func:`route_stream`); the pair is held for the next shard of the
   same spec (all of them at ``jobs=1``, each pool worker's share at
   ``jobs=N`` — nothing crosses the process boundary, so a worker still
   computes the plan it serves, just not once per shard);
2. every shard serves exactly the sub-stream routed to it, passing each
   request's **global** stream position as the ledger sequence number;
3. each shard summarises itself into a typed :class:`ShardServeOutcome` —
   retry-after bucket counts from its :class:`ServeLedger`, latency counts
   over the obs duration buckets, its ledger entries as the scalar tuples
   they already are — and that object is what
   :func:`~repro.sim.parallel.run_shards` hands back.

:func:`run_sharded` releases the held stream as soon as the last shard
returns, *before* it merges — the merge reads the outcomes only.  The
parent then sums the per-shard counters and merges the entries with
:func:`~repro.serve.ledger.merge_entries` — sorting by global seq — into
one run-wide :class:`~repro.serve.ledger.ServeLedger` whose canonical
bytes are independent of shard scheduling and worker count.  No JSON is
encoded until someone asks for bytes.

Timing: each shard's ``serve_seconds`` wall clock is measured around the
serve loop only (stream generation and cluster build excluded), and the
merged report's ``wall_seconds`` is the *slowest* shard's serve wall.
Total requests over that wall is the fleet-capacity throughput — the wall
clock of a deployment running one worker per shard, which equals measured
end-to-end wall clock whenever cores >= shards.  Shards are executed
sequentially at ``jobs=1`` in the scaling benchmark precisely so each
shard's wall is contention-free on small machines.

Fairness note: each shard keeps its own
:class:`~repro.besteffs.fairness.FairShareLedger` (budgets are enforced
shard-locally), preserving the paper's no-central-components property.
Every shard's budget is the fleet budget pro-rated by its node share, so
the fleet-wide budget is invariant under the shard count — but a
principal whose traffic homes entirely on one shard can draw only that
shard's slice of it.
"""

from __future__ import annotations

import asyncio
from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import accumulate
from time import perf_counter

from repro.besteffs.auth import CapabilityRealm
from repro.besteffs.cluster import ClusterStats
from repro.obs import DURATION_BUCKETS, STATE as _OBS
from repro.obs.metrics import quantile_from_cumulative
from repro.serve.ledger import ENTRY_FIELDS, ServeLedger, merge_entries
from repro.serve.loadgen import (
    _REALM_KEY,
    LoadGenReport,
    LoadGenSpec,
    _drive,
    build_gateway,
    build_requests,
    retry_after_histogram,
)
from repro.serve.protocol import ServeError, StoreRequest
from repro.serve.router import RoutingDecision, plan_routes
from repro.serve.service import GatewayService
from repro.sim.parallel import RunSpec, run_shards

__all__ = [
    "CSV_HEADERS",
    "ShardServeOutcome",
    "csv_rows",
    "execute",
    "render",
    "route_stream",
    "run_shard_serve",
    "run_sharded",
]

#: ``bench/trace.py`` resolves the deployment builder under this name here.
build_shard_gateway = build_gateway

#: A request stream and the routing decision of each of its requests.
RoutedStream = tuple[list[StoreRequest], list[RoutingDecision]]


@dataclass(frozen=True)
class ShardServeOutcome:
    """Everything one serving shard reports back to the merge step."""

    shard: int
    shards: int
    nodes: int
    #: Requests the routing plan assigned to this shard.
    assigned: int
    #: Assigned requests that arrived here by spill (home was saturated).
    spilled_in: int
    responses_by_status: dict[str, int]
    shed_by_reason: dict[str, int]
    refusals: dict[str, int]
    #: This shard's ``retry_after`` hints, bucketed.
    retry_after_histogram: dict[str, int]
    batches: int
    queue_peak: int
    coalesced: int
    deduped: int
    fairness_transactions: int
    #: Wall clock of the serve loop only (stream generation/build excluded).
    serve_seconds: float
    latency_mean_s: float
    latency_min_s: float
    latency_max_s: float
    #: Admission latencies counted per :data:`repro.obs.DURATION_BUCKETS`
    #: bucket plus a final overflow bucket — summable across shards, which
    #: per-shard percentiles are not.
    latency_buckets: tuple[int, ...]
    cluster: ClusterStats
    ledger: ServeLedger


def route_stream(spec: LoadGenSpec, realm: CapabilityRealm) -> RoutedStream:
    """Generate the spec's full request stream and route every request.

    Both halves are pure functions of the spec (``realm`` only signs the
    capabilities, and every shard holds the same key), so the result is
    the same for every shard and in every process.
    """
    requests = build_requests(spec, realm)
    plan, _router = plan_routes(requests, spec.router_config())
    return requests, plan


#: ``(spec, routed stream)`` held for the next ``serve-shard`` spec this
#: process executes.  Module state because the shards of one run reach
#: :func:`execute` through :func:`~repro.sim.parallel.run_shards`, which
#: passes picklable values only and runs the same code in pool workers;
#: one slot, so a process never holds more than one stream.
_held_stream: tuple[LoadGenSpec, RoutedStream] | None = None


def _shared_stream(spec: LoadGenSpec) -> RoutedStream:
    """The routed stream of ``spec``, built on first use in this process.

    Keyed on the whole (shard-independent) spec, so a different spec never
    sees this one's stream — it replaces it.  Only :func:`execute` shares:
    the registry restarts object ids for every spec it runs, which is what
    makes a stream built for shard 0 identical to the one shard 3 would
    have built for itself.
    """
    global _held_stream
    if _held_stream is None or _held_stream[0] != spec:
        _held_stream = None  # let the previous stream go before building
        _held_stream = (spec, route_stream(spec, CapabilityRealm(key=_REALM_KEY)))
    return _held_stream[1]


def _release_stream() -> None:
    global _held_stream
    _held_stream = None


def _latency_buckets(latencies: list[float]) -> tuple[int, ...]:
    """Count latencies per duration bucket (``value <= bound``) + overflow."""
    counts = [0] * (len(DURATION_BUCKETS) + 1)
    for value in latencies:
        counts[bisect_left(DURATION_BUCKETS, value)] += 1
    return tuple(counts)


def _latency_quantile(counts: list[int], lo: float, hi: float, q: float) -> float:
    """The ``q``-quantile of bucketed latencies (:func:`_latency_buckets`)."""
    cumulative = list(accumulate(counts[:-1]))
    return quantile_from_cumulative(
        DURATION_BUCKETS, cumulative, sum(counts), lo, hi, q
    )


def run_shard_serve(
    spec: LoadGenSpec, shard: int, routed: RoutedStream | None = None
) -> ShardServeOutcome:
    """Serve one shard's sub-stream of the spec's traffic.

    Drives only the requests the routing plan assigns here — with their
    global sequence numbers — through a fresh :class:`GatewayService` over
    this shard's node slice.  ``routed`` is :func:`route_stream`'s result
    for ``spec`` when the caller already has it; standalone calls build
    their own.  ``spec.clients`` sessions drive *each* shard.
    """
    if not 0 <= shard < spec.shards:
        raise ServeError(f"shard must be in [0, {spec.shards}), got {shard}")
    gateway = build_gateway(spec, shard)
    if routed is None:
        routed = route_stream(spec, gateway.realm)
    requests, plan = routed
    numbered: list[tuple[int, StoreRequest]] = []
    spilled_in = 0
    for seq, (request, decision) in enumerate(zip(requests, plan)):
        if decision.shard == shard:
            numbered.append((seq, request))
            spilled_in += decision.spilled
    ledger = ServeLedger()
    service = GatewayService(gateway, config=spec.serve_config(), ledger=ledger)

    async def _run() -> float:
        await service.start()
        t0 = perf_counter()
        await _drive(service, numbered, spec.mode, spec.clients, spec.open_burst)
        await service.stop()
        return perf_counter() - t0

    serve_seconds = asyncio.run(_run())
    if _OBS.enabled:
        shard_label = str(shard)
        _OBS.registry.counter(
            "serve_shard_requests_total",
            "Requests served per gateway shard",
            labelnames=("shard",),
        ).inc(len(numbered), shard=shard_label)
        _OBS.registry.counter(
            "serve_shard_spilled_total",
            "Requests arriving at a shard by saturation spill",
            labelnames=("shard",),
        ).inc(spilled_in, shard=shard_label)
    lat = service.latencies_seconds
    return ShardServeOutcome(
        shard=shard,
        shards=spec.shards,
        nodes=len(gateway.cluster.nodes),
        assigned=len(numbered),
        spilled_in=spilled_in,
        responses_by_status=dict(service.responses_by_status),
        shed_by_reason=dict(service.shed_by_reason),
        refusals=dict(gateway.refusals),
        retry_after_histogram=retry_after_histogram(ledger),
        batches=service.batches,
        queue_peak=service.queue_peak,
        coalesced=service.coalesced_total,
        deduped=gateway.deduped_total,
        fairness_transactions=gateway.ledger.transactions,
        serve_seconds=serve_seconds,
        latency_mean_s=sum(lat) / len(lat) if lat else 0.0,
        latency_min_s=min(lat, default=0.0),
        latency_max_s=max(lat, default=0.0),
        latency_buckets=_latency_buckets(lat),
        cluster=gateway.cluster.stats(now=service.clock),
        ledger=ledger,
    )


def render(outcome: ShardServeOutcome) -> str:
    """Printable single-shard summary (standalone ``serve-shard`` runs)."""
    lines = [
        f"serve shard {outcome.shard}/{outcome.shards}: {outcome.nodes} node(s), "
        f"{outcome.assigned} request(s) assigned "
        f"({outcome.spilled_in} spilled in)",
        f"  batches         {outcome.batches} (queue peak {outcome.queue_peak})",
        (
            f"  coalesced       {outcome.coalesced} sibling(s), "
            f"{outcome.deduped} deduped, "
            f"{outcome.fairness_transactions} ledger transaction(s)"
        ),
    ]
    for status, count in sorted(outcome.responses_by_status.items()):
        lines.append(f"  {status:<15} {count}")
    lines += [
        (
            f"  cluster         {outcome.cluster.placed} placed / "
            f"{outcome.cluster.rejected} rejected, "
            f"{outcome.cluster.resident_objects} resident"
        ),
        f"  serve wall      {outcome.serve_seconds:.3f}s",
        f"  ledger          {len(outcome.ledger)} entries",
    ]
    return "\n".join(lines)


def run_sharded(spec: LoadGenSpec, *, jobs: int = 1) -> LoadGenReport:
    """Serve the spec's traffic across all shards and merge the outcome.

    :func:`~repro.sim.parallel.run_shards` returns the shards' typed
    outcomes in shard-id order, so the merged report — above all the
    seq-merged ledger — is a pure function of the spec; ``jobs`` touches
    wall-clock figures only.

    Latency percentiles are fleet quantiles: per-shard bucket counts sum,
    and the quantile is read off the summed histogram (bucket resolution,
    clamped to the observed min/max).
    """
    params = asdict(spec)
    seed, horizon = params.pop("seed"), params.pop("horizon_days")
    try:
        outcomes: list[ShardServeOutcome] = run_shards(
            "serve-shard", params, spec.shards, seed=seed, horizon_days=horizon, jobs=jobs
        )
    finally:
        # The merge reads the shards' summaries only, so the stream they
        # shared (all of them, at jobs=1) goes first.
        _release_stream()

    def total(name: str) -> int:
        return sum(getattr(outcome, name) for outcome in outcomes)

    def counts(name: str) -> dict[str, int]:
        merged: Counter = Counter()
        for outcome in outcomes:
            merged.update(getattr(outcome, name))
        return dict(merged)

    served = [outcome for outcome in outcomes if any(outcome.latency_buckets)]
    lat_counts = [sum(column) for column in zip(*(o.latency_buckets for o in outcomes))]
    lat_total = sum(lat_counts)
    lat_min = min((o.latency_min_s for o in served), default=float("inf"))
    lat_max = max((o.latency_max_s for o in served), default=0.0)
    lat_weighted = sum(o.latency_mean_s * sum(o.latency_buckets) for o in served)
    stats = [outcome.cluster for outcome in outcomes]
    capacity = sum(s.capacity_bytes for s in stats)
    placed = sum(s.placed for s in stats)
    cluster = ClusterStats(
        nodes=total("nodes"),
        capacity_bytes=capacity,
        used_bytes=sum(s.used_bytes for s in stats),
        resident_objects=sum(s.resident_objects for s in stats),
        placed=placed,
        rejected=sum(s.rejected for s in stats),
        mean_density=(
            sum(s.mean_density * s.capacity_bytes for s in stats) / capacity
            if capacity else 0.0
        ),
        mean_rounds=sum(s.mean_rounds * s.placed for s in stats) / placed if placed else 0.0,
        mean_probes=sum(s.mean_probes * s.placed for s in stats) / placed if placed else 0.0,
    )
    per_shard = tuple(
        (o.shard, o.nodes, o.assigned, o.spilled_in,
         o.responses_by_status.get("admitted", 0), o.coalesced, o.serve_seconds)
        for o in outcomes
    )
    requests = total("assigned")
    # Fleet-capacity wall: the slowest shard bounds a one-worker-per-shard
    # deployment, whatever machine executed the shards here.
    wall = max(outcome.serve_seconds for outcome in outcomes)
    return LoadGenReport(
        spec=spec,
        requests=requests,
        responses_by_status=counts("responses_by_status"),
        shed_by_reason=counts("shed_by_reason"),
        refusals=counts("refusals"),
        batches=total("batches"),
        queue_peak=max(outcome.queue_peak for outcome in outcomes),
        wall_seconds=wall,
        ops_per_sec=requests / wall if wall > 0 else 0.0,
        latency_mean_s=lat_weighted / lat_total if lat_total else 0.0,
        latency_p50_s=_latency_quantile(lat_counts, lat_min, lat_max, 0.50),
        latency_p95_s=_latency_quantile(lat_counts, lat_min, lat_max, 0.95),
        latency_p99_s=_latency_quantile(lat_counts, lat_min, lat_max, 0.99),
        cluster=cluster,
        ledger=merge_entries(entry for outcome in outcomes for entry in outcome.ledger),
        coalesced=total("coalesced"),
        deduped=total("deduped"),
        spilled=total("spilled_in"),
        fairness_transactions=total("fairness_transactions"),
        retry_after_histogram=counts("retry_after_histogram"),
        # One row per shard of a fleet; the fleet of one has no table.
        per_shard=per_shard if spec.shards > 1 else (),
    )


#: The ``serve-shard`` CSV is the shard's ledger: sim-time columns only,
#: so it is byte-identical at any ``--jobs``.
CSV_HEADERS = ENTRY_FIELDS


def csv_rows(outcome: ShardServeOutcome) -> list[tuple]:
    """The shard's ledger entries, in global submission order."""
    return list(outcome.ledger)


def execute(spec: RunSpec) -> ShardServeOutcome:
    """Run one serving shard from a :class:`RunSpec` (registry entry)."""
    kwargs = spec.call_kwargs()
    shard = int(kwargs.pop("shard", 0))
    kwargs.setdefault("max_requests", 400)  # interactive `run all` scale
    load_spec = LoadGenSpec(**kwargs)
    return run_shard_serve(load_spec, shard, _shared_stream(load_spec))

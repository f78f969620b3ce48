"""Seeded closed/open-loop load generator over :class:`GatewayService`.

Replays the simulator's workload generators (university capture,
Fig. 8 download-popularity trace, diurnally modulated single-app) as
concurrent client sessions against a freshly built Besteffs deployment —
cluster, capability realm, fair-share ledger, gateway, service — so one
:class:`LoadGenSpec` describes a complete serving experiment:

* **closed loop** — the request stream is partitioned round-robin across
  ``clients`` sessions; each session submits its next request only after
  the previous response arrives (classic closed-loop think-time-zero
  clients, so offered load self-limits to service capacity);
* **open loop** — every request is submitted as soon as the producer
  reaches it, regardless of outstanding responses; the bounded queue and
  rate limiter do the shedding (this is the mode that exercises
  backpressure).

This module holds what a spec *is* — its validation, the deployment it
stands up (:func:`build_gateway`), its request stream
(:func:`build_requests`), the client sessions and the report.  Serving it
is :mod:`repro.serve.sharded`'s job at every shard count: Besteffs has no
central component, so a single gateway is the fleet of one, and
:func:`run_loadgen` has no serving code of its own.  As the ``serve-flash``
registry entry, the module also runs the flash-crowd scenario
(:func:`execute`) and reports it (:func:`render`, :func:`csv_rows`).

Everything that decides *outcomes* runs on simulation time with seeded
RNGs, so a spec maps to one byte-exact request/response ledger
(:meth:`LoadGenReport.ledger`).  Wall-clock enters only the throughput
and latency figures of the report.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Iterator

from repro.besteffs.auth import Capability, CapabilityRealm
from repro.besteffs.cluster import BesteffsCluster, ClusterStats
from repro.besteffs.fairness import FairShareLedger
from repro.besteffs.gateway import BesteffsGateway
from repro.besteffs.placement import PlacementConfig
from repro.core.importance import TwoStepImportance
from repro.core.obj import StoredObject
from repro.serve.ledger import ENTRY_FIELDS, ServeLedger
from repro.serve.protocol import ServeError, StoreRequest, StoreStatus
from repro.serve.router import RouterConfig, home_shard
from repro.serve.service import GatewayService, ServeConfig
from repro.sim.parallel import RunSpec
from repro.sim.shard import shard_slice
from repro.sim.workload.diurnal import DiurnalModulation, OFFICE_HOURS_PROFILE
from repro.sim.workload.downloads import synthesize_download_trace
from repro.sim.workload.single_app import SingleAppWorkload
from repro.sim.workload.university import (
    STUDENT_CREATOR,
    UniversityConfig,
    UniversityWorkload,
)
from repro.units import MINUTES_PER_DAY, days, gib, mib

__all__ = [
    "CSV_HEADERS",
    "FLASH_CREATOR",
    "LoadGenSpec",
    "LoadGenReport",
    "csv_rows",
    "execute",
    "flash_hot_ids",
    "render",
    "retry_after_histogram",
    "run_loadgen",
]

WORKLOADS = ("university", "downloads", "diurnal", "flashcrowd")
MODES = ("closed", "open")

#: Initial-importance ceiling minted per creator class; the student tier
#: gets exactly the workload's student importance so the capability path
#: is exercised without refusing the nominal stream.
_CEILINGS = {STUDENT_CREATOR: 0.5}

#: Cache-grade annotation stamped onto replayed downloads: each fetch is
#: materialised as a short-lived mirror copy (Schmidt & Jensen's
#: short-lived-data regime), waning over a few days.
_DOWNLOAD_LIFETIME = TwoStepImportance(p=0.35, t_persist=days(2), t_wane=days(5))
_DOWNLOAD_BYTES = mib(64)

#: Creator class of the flash-crowd burst traffic: one hot story, many
#: mirrors racing to cache the same small payloads.
FLASH_CREATOR = "flash"
_FLASH_LIFETIME = TwoStepImportance(p=0.4, t_persist=days(1), t_wane=days(2))
_FLASH_BYTES = mib(4)

#: Retry-after histogram bucket edges, simulated minutes.
_RETRY_BUCKETS = (1.0, 5.0, 15.0, 60.0, 240.0, 1440.0)

#: Deployment secret every gateway of a loadgen deployment is provisioned
#: with, so a capability minted anywhere verifies at every shard.
_REALM_KEY = b"repro-serve-loadgen"


@dataclass(frozen=True)
class LoadGenSpec:
    """One serving experiment: deployment, traffic, and service tuning."""

    workload: str = "university"
    mode: str = "closed"
    clients: int = 8
    nodes: int = 4
    node_capacity_gib: float = 2.0
    horizon_days: float = 30.0
    seed: int = 42
    #: University catalogue scale factor (fraction of the full campus).
    scale: float = 0.01
    queue_size: int = 256
    batch_max: int = 32
    rate_per_minute: float = 0.0
    rate_burst: float = 8.0
    #: Relative deadline (minutes after arrival) stamped on every request;
    #: None submits without deadlines.
    deadline_minutes: float | None = None
    #: Open-loop pacing: requests submitted per scheduler tick.  The
    #: worker drains at most ``batch_max`` per tick, so a burst above
    #: ``batch_max`` grows the queue and eventually sheds — the knob that
    #: makes backpressure observable.
    open_burst: int = 16
    #: Fair-share budget per principal per period, in GiB·days of
    #: importance (byte-importance-minutes / (2^30 · 1440)).
    budget_gib_days: float = 450.0
    period_days: float = 30.0
    #: Hard cap on replayed requests; None replays the whole horizon.
    max_requests: int | None = None
    #: Gateway shards fronting the cluster: each request is routed to one
    #: (:mod:`repro.serve.router`) and each shard serves on its own service.
    shards: int = 1
    #: Spill policy under home-shard saturation: "overflow" or "never".
    spill: str = "overflow"
    #: Offered-load high-water mark (requests in window) triggering spill.
    high_water: int = 64
    #: Sliding offered-load window, simulated minutes.
    window_minutes: float = 1440.0
    #: Coalesce same-token, same-object writes per admission round.
    coalesce: bool = True
    #: Flash-crowd workload: distinct hot object ids the burst hammers.
    hot_objects: int = 8
    #: Flash-crowd burst volume as a multiple of the base stream.
    burst_factor: float = 2.0
    #: Shard whose keyspace the flash crowd aims at (all hot ids home there).
    target_shard: int = 0

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ServeError(f"workload must be one of {WORKLOADS}, got {self.workload!r}")
        if self.mode not in MODES:
            raise ServeError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.clients < 1:
            raise ServeError(f"clients must be >= 1, got {self.clients}")
        if self.nodes < 1:
            raise ServeError(f"nodes must be >= 1, got {self.nodes}")
        if self.node_capacity_gib <= 0:
            raise ServeError(f"node capacity must be positive, got {self.node_capacity_gib}")
        if self.horizon_days <= 0:
            raise ServeError(f"horizon must be positive, got {self.horizon_days}")
        if self.max_requests is not None and self.max_requests < 1:
            raise ServeError(f"max_requests must be >= 1, got {self.max_requests}")
        if self.open_burst < 1:
            raise ServeError(f"open_burst must be >= 1, got {self.open_burst}")
        self.router_config()  # validates shards, spill, high_water, window_minutes
        if self.shards > self.nodes:
            raise ServeError(
                f"shards must be <= nodes, got {self.shards} shards "
                f"over {self.nodes} nodes"
            )
        if self.hot_objects < 1:
            raise ServeError(f"hot_objects must be >= 1, got {self.hot_objects}")
        if self.burst_factor < 0:
            raise ServeError(f"burst_factor must be >= 0, got {self.burst_factor}")
        if not 0 <= self.target_shard < self.shards:
            raise ServeError(
                f"target_shard must be in [0, {self.shards}), got {self.target_shard}"
            )

    def router_config(self) -> RouterConfig:
        return RouterConfig(
            shards=self.shards,
            spill=self.spill,
            high_water=self.high_water,
            window_minutes=self.window_minutes,
        )

    def serve_config(self) -> ServeConfig:
        return ServeConfig(
            queue_size=self.queue_size,
            batch_max=self.batch_max,
            rate_per_minute=self.rate_per_minute,
            rate_burst=self.rate_burst,
            coalesce=self.coalesce,
        )


def shard_serve_seed(seed: int, shard: int, shards: int) -> int:
    """Deterministic 63-bit seed of one serving shard's cluster RNG.

    The fleet of one keeps the base seed.  Multi-shard seeds derive from
    the shard coordinates alone — never from worker identity — mirroring
    :func:`repro.sim.shard.shard_seed`.
    """
    if shards == 1:
        return seed
    ident = f"serve|{seed}|{shards}|{shard}".encode()
    return int.from_bytes(hashlib.sha256(ident).digest()[:8], "big") >> 1


def build_gateway(spec: LoadGenSpec, shard: int = 0) -> BesteffsGateway:
    """Stand up shard ``shard``'s slice of the deployment a spec describes.

    Node names keep their *global* indexes (``node-007`` is the same brick
    whatever the shard count), and every shard mints capabilities from the
    same realm key, so a capability is valid at whichever shard routing
    picks.
    """
    node_start, node_count = shard_slice(spec.nodes, spec.shards, shard)
    if node_count < 1:
        raise ServeError(
            f"serving shard {shard}/{spec.shards} has no nodes "
            f"({spec.nodes} total); use fewer shards"
        )
    capacities = {
        f"node-{node_start + i:03d}": gib(spec.node_capacity_gib)
        for i in range(node_count)
    }
    cluster = BesteffsCluster(
        capacities,
        placement=PlacementConfig(x=min(4, node_count), m=2),
        seed=shard_serve_seed(spec.seed, shard, spec.shards),
    )
    realm = CapabilityRealm(key=_REALM_KEY)
    # Pro-rate the fleet budget by node share: summed over shards the
    # deployment enforces exactly ``budget_gib_days``, whatever the shard
    # count.
    ledger = FairShareLedger(
        budget_per_period=(
            spec.budget_gib_days * gib(1) * MINUTES_PER_DAY * node_count / spec.nodes
        ),
        period_minutes=days(spec.period_days),
    )
    return BesteffsGateway(cluster, realm, ledger)


def _download_arrivals(spec: LoadGenSpec) -> Iterator[StoredObject]:
    """Materialise the Fig. 8 popularity trace as cache-grade writes.

    Each daily download becomes one mirror copy, spread deterministically
    across its day so the service clock advances within days too.
    """
    horizon_days = spec.horizon_days
    for day, count in synthesize_download_trace(seed=spec.seed):
        if day > horizon_days:
            break
        for i in range(count):
            t = float(day * MINUTES_PER_DAY + (i * MINUTES_PER_DAY) // max(1, count))
            yield StoredObject(
                size=_DOWNLOAD_BYTES,
                t_arrival=t,
                lifetime=_DOWNLOAD_LIFETIME,
                creator="mirror",
            )


def flash_hot_ids(
    seed: int, shards: int, target_shard: int, hot_objects: int
) -> list[str]:
    """The burst's hot object ids, all homed on ``target_shard``.

    Candidate names are enumerated deterministically and rejection-sampled
    through :func:`repro.serve.router.home_shard`, so the whole crowd aims
    at one shard's keyspace by construction — the scenario where routing
    without spill melts a single gateway.
    """
    ids: list[str] = []
    candidate = 0
    while len(ids) < hot_objects:
        name = f"flash-{seed}-{candidate:05d}"
        if home_shard(name, shards) == target_shard:
            ids.append(name)
        candidate += 1
    return ids


def _flash_arrivals(spec: LoadGenSpec) -> list[tuple[StoredObject, str]]:
    """The slashdot scenario: a university base load plus a hot-key burst.

    The burst adds ``burst_factor`` x the base volume of small cache-grade
    writes, every one naming one of ``hot_objects`` ids homed on
    ``target_shard``, spread evenly over the middle third of the horizon and
    rounded up to whole minutes (a unit decides at whole minutes, and
    rounding up never judges a write before it was made).
    Burst duplicates share object ids but need distinct request ids (the
    ledger keys responses by them), so each is paired with an explicit
    ``req-<object-id>@<k>``; base arrivals keep the derived id (``""``).
    """
    base_spec = replace(spec, workload="university")
    merged: list[tuple[float, int, int, StoredObject, str]] = []
    for idx, obj in enumerate(_arrivals(base_spec)):
        merged.append((obj.t_arrival, 0, idx, obj, ""))
    base_count = len(merged)
    burst_total = int(round(spec.burst_factor * base_count))
    hot = flash_hot_ids(spec.seed, spec.shards, spec.target_shard, spec.hot_objects)
    horizon = days(spec.horizon_days)
    start, end = horizon / 3.0, 2.0 * horizon / 3.0
    for k in range(burst_total):
        t = float(math.ceil(start + (end - start) * k / max(1, burst_total)))
        object_id = hot[k % len(hot)]
        obj = StoredObject(
            size=_FLASH_BYTES,
            t_arrival=t,
            lifetime=_FLASH_LIFETIME,
            object_id=object_id,
            creator=FLASH_CREATOR,
        )
        merged.append((t, 1, k, obj, f"req-{object_id}@{k}"))
    merged.sort(key=lambda item: (item[0], item[1], item[2]))
    return [(obj, request_id) for _t, _src, _idx, obj, request_id in merged]


def _arrivals(spec: LoadGenSpec) -> Iterator[StoredObject]:
    horizon = days(spec.horizon_days)
    if spec.workload == "university":
        workload = UniversityWorkload(
            config=UniversityConfig().scaled(spec.scale), seed=spec.seed
        )
        return workload.arrivals(horizon)
    if spec.workload == "downloads":
        return _download_arrivals(spec)
    assert spec.workload == "diurnal"
    modulated = DiurnalModulation(
        SingleAppWorkload(seed=spec.seed),
        profile=OFFICE_HOURS_PROFILE,
        seed=spec.seed + 1,
    )
    return modulated.arrivals(horizon)


def build_requests(spec: LoadGenSpec, realm: CapabilityRealm) -> list[StoreRequest]:
    """Replay the spec's workload as a request stream with capabilities.

    One capability is minted per creator class (lazily, on first
    arrival), with the initial-importance ceiling of :data:`_CEILINGS`
    where listed (1.0 otherwise).
    """
    if spec.workload == "flashcrowd":
        stream = _flash_arrivals(spec)
    else:
        stream = ((obj, "") for obj in _arrivals(spec))
    if spec.max_requests is not None:
        stream = islice(stream, spec.max_requests)
    caps: dict[str, Capability] = {}
    requests: list[StoreRequest] = []
    for obj, request_id in stream:
        cap = caps.get(obj.creator)
        if cap is None:
            cap = caps[obj.creator] = realm.mint(
                obj.creator,
                max_initial_importance=_CEILINGS.get(obj.creator, 1.0),
            )
        deadline = (
            None
            if spec.deadline_minutes is None
            else obj.t_arrival + spec.deadline_minutes
        )
        requests.append(
            StoreRequest(
                capability=cap, obj=obj, request_id=request_id, deadline=deadline
            )
        )
    return requests


@dataclass
class LoadGenReport:
    """What one loadgen run produced, measured, and recorded.

    Counters sum across shards, ``wall_seconds`` is the *slowest shard's*
    serve wall (the fleet-capacity wall clock — what the run would take
    with one worker per shard), the latency percentiles are read off the
    fleet's summed bucket counts, and ``ledger`` is the seq-merged
    :class:`~repro.serve.ledger.ServeLedger`.
    """

    spec: LoadGenSpec
    requests: int
    responses_by_status: dict[str, int]
    shed_by_reason: dict[str, int]
    refusals: dict[str, int]
    batches: int
    queue_peak: int
    wall_seconds: float
    ops_per_sec: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    cluster: ClusterStats
    ledger: ServeLedger
    #: Requests answered from a coalesced sibling's decision.
    coalesced: int = 0
    #: Writes acknowledged against an already-resident copy (cross-batch).
    deduped: int = 0
    #: Requests routed away from a saturated home shard.
    spilled: int = 0
    #: Fair-share ledger debit transactions (coalescing drives this down).
    fairness_transactions: int = 0
    #: Histogram of the ``retry_after`` hints handed back, bucketed minutes.
    retry_after_histogram: dict[str, int] = field(default_factory=dict)
    #: Per-shard rows ``(shard, nodes, assigned, spilled_in, admitted,
    #: coalesced, serve_seconds)``; empty for a one-shard fleet.
    per_shard: tuple[tuple, ...] = ()

    @property
    def admitted(self) -> int:
        return self.responses_by_status.get("admitted", 0)


def retry_after_histogram(ledger: ServeLedger) -> dict[str, int]:
    """Bucket every non-null ``retry_after`` hint in the ledger (minutes).

    Buckets are fixed (:data:`_RETRY_BUCKETS` edges plus an overflow), and
    every bucket appears — zero counts included — so reports from
    different runs line up column-for-column.
    """
    column = ENTRY_FIELDS.index("retry_after")
    values = [entry[column] for entry in ledger if entry[column] is not None]
    labels = [f"<={edge:g}m" for edge in _RETRY_BUCKETS]
    labels.append(f">{_RETRY_BUCKETS[-1]:g}m")
    hist = dict.fromkeys(labels, 0)
    for value in values:
        for edge, label in zip(_RETRY_BUCKETS, labels):
            if value <= edge:
                hist[label] += 1
                break
        else:
            hist[labels[-1]] += 1
    return hist


async def _drive(
    service: GatewayService,
    numbered: list[tuple[int, StoreRequest]],
    mode: str,
    clients: int,
    open_burst: int,
) -> None:
    """Submit ``(seq, request)`` pairs closed- or open-loop.

    The explicit sequence number is each request's *global* stream
    position: the merge key when a shard serves a filtered sub-stream.
    """
    if mode == "closed":

        async def session(chunk: list[tuple[int, StoreRequest]]) -> None:
            for seq, request in chunk:
                await service.submit(request, seq=seq)

        chunks = [numbered[i::clients] for i in range(clients)]
        await asyncio.gather(*(session(c) for c in chunks if c))
        return

    tasks = []
    for i, (seq, request) in enumerate(numbered, start=1):
        tasks.append(asyncio.ensure_future(service.submit(request, seq=seq)))
        if i % open_burst == 0:
            await asyncio.sleep(0)
    await asyncio.gather(*tasks)


def run_loadgen(spec: LoadGenSpec, *, jobs: int = 1) -> LoadGenReport:
    """Build the deployment, replay the traffic, return the report.

    This is :func:`repro.serve.sharded.run_sharded` at every shard count;
    ``jobs`` selects how many shard workers execute concurrently and never
    affects outcomes.  Two things follow for a one-shard spec.  Every
    shard runs through the experiment registry, which restarts the
    auto-generated object ids (``reset_object_ids()``) first: two runs in
    one process name their objects alike.  And ``latency_p50/95/99_s`` are
    quantiles of the fleet's latency bucket counts — bucket resolution,
    clamped to the observed min/max — not exact order statistics.
    """
    from repro.serve.sharded import run_sharded

    return run_sharded(spec, jobs=jobs)


def render(report: LoadGenReport) -> str:
    """Human-readable summary for the CLI.

    Every :class:`~repro.serve.protocol.StoreStatus` gets a line (zero
    counts included, so runs line up), shed reasons and the retry-after
    histogram are broken out, and multi-shard runs append a per-shard table.
    """
    spec = report.spec
    sharding = (
        f", {spec.shards} shard(s) ({spec.spill} spill)" if spec.shards > 1 else ""
    )
    lines = [
        f"loadgen: {spec.workload} workload, {spec.mode} loop, "
        f"{spec.clients} client(s), {spec.nodes} node(s){sharding}",
        f"  requests          {report.requests}",
        "  responses by status:",
    ]
    for status in StoreStatus:
        lines.append(
            f"    {status.value:<18} {report.responses_by_status.get(status.value, 0)}"
        )
    if report.shed_by_reason:
        lines.append("  shed reasons:")
        for reason, count in sorted(report.shed_by_reason.items()):
            lines.append(f"    {reason:<18} {count}")
    nonzero = {k: v for k, v in report.retry_after_histogram.items() if v}
    if nonzero:
        lines.append("  retry-after histogram (minutes):")
        for label, count in report.retry_after_histogram.items():
            lines.append(f"    {label:<18} {count}")
    lines += [
        f"  batches           {report.batches} (queue peak {report.queue_peak})",
        (
            f"  coalesced         {report.coalesced} sibling(s), "
            f"{report.deduped} deduped, "
            f"{report.fairness_transactions} ledger transaction(s)"
        ),
        f"  throughput        {report.ops_per_sec:,.0f} ops/s over {report.wall_seconds:.3f}s",
        (
            f"  latency           p50 {report.latency_p50_s * 1e6:,.0f}us  "
            f"p95 {report.latency_p95_s * 1e6:,.0f}us  "
            f"p99 {report.latency_p99_s * 1e6:,.0f}us"
        ),
        (
            f"  cluster           {report.cluster.placed} placed / "
            f"{report.cluster.rejected} rejected, "
            f"{report.cluster.resident_objects} resident"
        ),
        f"  ledger sha256     {report.ledger.canonical_sha256()}",
    ]
    if report.per_shard:
        lines.append(f"  spilled           {report.spilled} (off-home routes)")
        lines.append("  shard  nodes  assigned  spilled-in  admitted  coalesced  serve-s")
        for shard, nodes, assigned, spilled_in, admitted, coalesced, serve_s in (
            report.per_shard
        ):
            lines.append(
                f"  {shard:>5}  {nodes:>5}  {assigned:>8}  {spilled_in:>10}  "
                f"{admitted:>8}  {coalesced:>9}  {serve_s:>7.3f}"
            )
    return "\n".join(lines)


CSV_HEADERS = ("kind", "key", "value")


def csv_rows(report: LoadGenReport) -> list[tuple]:
    """Deterministic ``(kind, key, value)`` rows of a merged run.

    Wall-clock figures never appear here — this is the artifact surface the
    jobs-parity and determinism checks hash.
    """
    rows: list[tuple] = [
        ("stat", "requests", report.requests),
        ("stat", "batches", report.batches),
        ("stat", "coalesced", report.coalesced),
        ("stat", "deduped", report.deduped),
        ("stat", "spilled", report.spilled),
        ("stat", "fairness_transactions", report.fairness_transactions),
        ("stat", "placed", report.cluster.placed),
        ("stat", "rejected", report.cluster.rejected),
        ("stat", "resident", report.cluster.resident_objects),
        ("stat", "used_bytes", report.cluster.used_bytes),
    ]
    rows.extend(
        ("status", status, count)
        for status, count in sorted(report.responses_by_status.items())
    )
    rows.extend(
        ("shed", reason, count)
        for reason, count in sorted(report.shed_by_reason.items())
    )
    rows.extend(
        ("retry", label, count)
        for label, count in report.retry_after_histogram.items()
    )
    rows.extend(
        ("shard", f"{shard:03d}/assigned", assigned)
        for shard, _nodes, assigned, _sp, _adm, _co, _wall in report.per_shard
    )
    rows.extend(
        ("shard", f"{shard:03d}/spilled_in", spilled_in)
        for shard, _nodes, _assigned, spilled_in, _adm, _co, _wall in report.per_shard
    )
    rows.append(("ledger", "sha256", report.ledger.canonical_sha256()))
    rows.extend(
        ("ledger", f"{i:012d}", line) for i, line in enumerate(report.ledger.lines)
    )
    return rows


def execute(spec: RunSpec) -> LoadGenReport:
    """Run the flash-crowd scaling scenario (``serve-flash``) from a :class:`RunSpec`.

    Defaults are the *reduced* interactive scale (the scaling benchmark
    pins its own, larger spec): a four-shard, eight-node deployment under
    the slashdot burst, merged across shards.  ``jobs`` selects shard
    execution width and never reaches the artifacts.
    """
    kwargs = spec.call_kwargs()
    jobs = int(kwargs.pop("jobs", 1))
    kwargs.setdefault("workload", "flashcrowd")
    kwargs.setdefault("shards", 4)
    kwargs.setdefault("nodes", 8)
    kwargs.setdefault("clients", 4)
    kwargs.setdefault("scale", 0.005)
    kwargs.setdefault("high_water", 32)
    kwargs.setdefault("max_requests", 600)
    return run_loadgen(LoadGenSpec(**kwargs), jobs=jobs)

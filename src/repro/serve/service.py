"""The async serving front-end over :class:`~repro.besteffs.gateway.BesteffsGateway`.

:class:`GatewayService` turns the batch-simulation write path into a
long-running concurrent request path:

* **bounded queue + backpressure** — ``submit`` never blocks the caller
  on a full queue; the request is shed immediately with
  ``SHED_BACKPRESSURE`` and a retry-after hint (the 429 idiom, after
  HTM-EAR's explicit routing-under-saturation argument in PAPERS.md);
* **per-principal token-bucket rate limiting**
  (:class:`~repro.serve.ratelimit.TokenBucketLimiter`) layered on the
  fair-share ledger — the bucket bounds request *rate*, the ledger bounds
  importance-weighted *bytes*;
* **batched admission** — a single worker coalesces up to ``batch_max``
  pending requests into one placement round, judging all of them at the
  same batch clock;
* **deadline drop** — a queued request whose deadline has passed by the
  time its batch runs is answered ``EXPIRED_IN_QUEUE`` without touching
  the gateway (Schmidt & Jensen's point: the serving layer itself should
  exploit expiry semantics);
* **graceful drain** — :meth:`stop` refuses new work but answers every
  request already queued before the worker exits.

Time is **simulation time** (minutes): the service clock is the maximum
sim-time seen across submissions, so replayed workload traffic drives it
forward deterministically.  Wall-clock (``perf_counter``) is used only to
measure admission latency for the obs histogram and the loadgen report —
it never reaches the request/response ledger, which stays byte-identical
across seeded runs.

Batches are handled on the event loop, one at a time — the worker awaits
each batch before it dequeues the next — and the only await points are
``asyncio.sleep(0)`` yields, so scheduling is deterministic.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from time import perf_counter

from repro.besteffs.gateway import BesteffsGateway
from repro.obs import COUNT_BUCKETS, STATE as _OBS
from repro.serve.ledger import ServeLedger
from repro.serve.protocol import ServeError, StoreRequest, StoreResponse, StoreStatus
from repro.serve.ratelimit import TokenBucketLimiter
from repro.sim.probes import scrape

__all__ = ["ServeConfig", "GatewayService", "serve"]

@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of one :class:`GatewayService` instance."""

    #: Bound on queued-but-unadmitted requests; beyond it, shed.
    queue_size: int = 256
    #: Max requests coalesced into one placement round.
    batch_max: int = 32
    #: Per-principal token-bucket rate (requests per simulated minute);
    #: 0 disables rate limiting.
    rate_per_minute: float = 0.0
    #: Token-bucket burst capacity (tokens).
    rate_burst: float = 8.0
    #: Retry-after hint (simulated minutes) attached to queue-full sheds.
    retry_after_minutes: float = 1.0
    #: Coalesce requests presenting the same token for the same object id
    #: and payload within one admission round into a single gateway
    #: decision fanned back to all callers (the write-dedup half of
    #: flash-crowd survival).
    coalesce: bool = True

    def __post_init__(self) -> None:
        if self.queue_size < 1:
            raise ServeError(f"queue_size must be >= 1, got {self.queue_size}")
        if self.batch_max < 1:
            raise ServeError(f"batch_max must be >= 1, got {self.batch_max}")
        if self.retry_after_minutes <= 0:
            raise ServeError(
                f"retry_after_minutes must be > 0, got {self.retry_after_minutes}"
            )


@dataclass(slots=True)
class _Pending:
    """A queued request awaiting its admission batch."""

    request: StoreRequest
    seq: int
    t_submit: float
    t0: float  # perf_counter at submission, for the latency histogram
    future: asyncio.Future


_STOP = object()


def _same_auth_input(leader: StoreRequest, member: StoreRequest) -> bool:
    """Whether the auth gate reads the same input from both requests.

    True only for the same presented token — fields *and* signature — and
    the same payload fields :meth:`CapabilityRealm.authorize_store`
    checks against it (size, lifetime).
    """
    return (
        leader.capability.same_token(member.capability)
        and leader.obj.size == member.obj.size
        and leader.obj.lifetime == member.obj.lifetime
    )


class GatewayService:
    """Concurrent, batched, backpressured front-end over one gateway."""

    def __init__(
        self,
        gateway: BesteffsGateway,
        *,
        config: ServeConfig | None = None,
        ledger: ServeLedger | None = None,
    ) -> None:
        self.gateway = gateway
        self.config = config or ServeConfig()
        self.ledger = ledger
        self.limiter = TokenBucketLimiter(
            self.config.rate_per_minute, self.config.rate_burst
        )
        #: Service clock: max sim-time (minutes) seen across submissions.
        self.clock = 0.0
        self.requests_total = 0
        self.responses_by_status: dict[str, int] = {}
        self.shed_by_reason: dict[str, int] = {}
        self.batches = 0
        #: Admission rounds the gateway raised in; their callers got the
        #: exception instead of a response.
        self.failed_batches = 0
        self.queue_peak = 0
        #: Requests answered from a coalesced sibling's decision.
        self.coalesced_total = 0
        #: Wall-clock admission latency of every queue-processed request.
        self.latencies_seconds: list[float] = []
        self._seq = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue | None = None
        self._worker_task: asyncio.Task | None = None
        self._draining = False

    # -- lifecycle --------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._worker_task is not None and not self._worker_task.done()

    async def start(self) -> None:
        """Create the queue and worker on the running event loop."""
        if self.running:
            raise ServeError("service is already running")
        self._draining = False
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.config.queue_size)
        self._worker_task = asyncio.create_task(self._worker())

    async def stop(self) -> None:
        """Graceful drain: refuse new work, answer everything queued."""
        if self._queue is None:
            return
        self._draining = True
        # put() (not put_nowait) so a full queue cannot drop the sentinel;
        # FIFO order guarantees every prior request is answered first.
        await self._queue.put(_STOP)
        if self._worker_task is not None:
            await self._worker_task
            self._worker_task = None
        self._queue = None

    # -- request path -----------------------------------------------------

    async def submit(
        self,
        request: StoreRequest,
        now: float | None = None,
        *,
        seq: int | None = None,
    ) -> StoreResponse:
        """Enqueue one request and await its response.

        ``now`` is the submission sim-time (defaults to the payload's
        arrival time); the service clock advances to the max seen.
        ``seq`` overrides the ledger sequence number — the sharded runner
        passes each request's *global* stream position so per-shard
        ledgers merge into one coherent run ledger; by default the
        service numbers submissions itself.  Returns immediately —
        without queuing — when draining, rate limited, or the queue is
        full.
        """
        if self._queue is None:
            raise ServeError("service is not running; call start() first")
        if now is None:
            now = request.obj.t_arrival
        if now > self.clock:
            self.clock = now
        if seq is None:
            seq = self._seq
            self._seq += 1
        self.requests_total += 1
        if _OBS.enabled:
            _OBS.registry.counter(
                "serve_requests_total", "Store requests submitted to the service"
            ).inc()

        if self._draining:
            return self._shed(request, seq, now, "draining", None)
        principal = request.capability.principal
        if not self.limiter.try_acquire(principal, self.clock):
            return self._shed(
                request,
                seq,
                now,
                "ratelimit",
                self.limiter.retry_after(principal, self.clock),
            )
        future: asyncio.Future = self._loop.create_future()
        pending = _Pending(request, seq, now, perf_counter(), future)
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            return self._shed(
                request, seq, now, "queue-full", self.config.retry_after_minutes
            )
        depth = self._queue.qsize()
        if depth > self.queue_peak:
            self.queue_peak = depth
        if _OBS.enabled:
            _OBS.registry.gauge(
                "serve_queue_depth", "Requests queued awaiting admission"
            ).set(depth)
        return await future

    def _shed(
        self,
        request: StoreRequest,
        seq: int,
        now: float,
        reason: str,
        retry_after: float | None,
    ) -> StoreResponse:
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        response = StoreResponse(
            request_id=request.request_id,
            status=StoreStatus.SHED_BACKPRESSURE,
            detail=f"shed: {reason}",
            retry_after=retry_after,
        )
        self._account(response)
        if _OBS.enabled:
            _OBS.registry.counter(
                "serve_shed_total",
                "Requests shed before queuing, per reason",
                labelnames=("reason",),
            ).inc(reason=reason)
        if self.ledger is not None:
            self.ledger.record(
                request, response, t_submit=now, t_decided=now, seq=seq
            )
        return response

    def _account(self, response: StoreResponse) -> None:
        status = response.status._value_  # the plain attribute behind ``.value``
        self.responses_by_status[status] = self.responses_by_status.get(status, 0) + 1
        if _OBS.enabled:
            _OBS.registry.counter(
                "serve_responses_total",
                "Responses issued by the service, per status",
                labelnames=("status",),
            ).inc(status=status)

    # -- worker -----------------------------------------------------------

    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            item = await self._queue.get()
            if item is _STOP:
                break
            batch: list[_Pending] = [item]
            stop_seen = False
            while len(batch) < self.config.batch_max:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _STOP:
                    stop_seen = True
                    break
                batch.append(nxt)
            if _OBS.enabled:
                _OBS.registry.gauge(
                    "serve_queue_depth", "Requests queued awaiting admission"
                ).set(self._queue.qsize())
            await self._process_batch(batch)
            if stop_seen:
                break

    async def _process_batch(self, batch: list[_Pending]) -> None:
        # One clock per batch: every member is judged at the same instant,
        # which is what makes coalescing a *placement round* rather than a
        # convenience loop.
        batch_now = self.clock
        self.batches += 1
        if _OBS.enabled:
            _OBS.registry.histogram(
                "serve_batch_size",
                "Requests coalesced per admission round",
                buckets=COUNT_BUCKETS,
            ).observe(len(batch))
        try:
            responses = self._handle_batch(batch, batch_now)
            # Deterministic yield so open-loop submitters interleave.
            await asyncio.sleep(0)
        except Exception as exc:
            # The gateway raised mid-round: no decision exists for any
            # member, so each caller's one terminal outcome is the error
            # (with its traceback) — and the worker lives on to drain the
            # queue, or ``stop()`` would wait on it forever.
            self.failed_batches += 1
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        for pending, response in zip(batch, responses):
            self._finish(pending, response, batch_now)
        if _OBS.enabled:
            # The worker owns the serving clock, so it runs the scrape.
            collector = _OBS.timeseries
            if collector is not None and batch_now >= collector.next_due:
                scrape(self.gateway.cluster.nodes.values(), batch_now)

    def _handle_batch(
        self, batch: list[_Pending], now: float
    ) -> list[StoreResponse]:
        """Synchronous batch admission, on the event loop.

        Deadlines are checked first — an expired request is answered
        ``EXPIRED_IN_QUEUE`` *before* coalescing groups form, so it can
        neither be admitted through a live sibling's decision nor drag a
        live sibling down with it.  The surviving requests then coalesce:
        one gateway decision per group, fanned back to every member
        (siblings carry ``cost_charged=0`` — only the leader's write was
        charged and placed).  Groups form *before* authentication, so the
        claimed ``(principal, object id)`` only nominates one: a member
        rides its leader's decision only if :func:`_same_auth_input` holds
        — the auth gate, judging both at this round's clock, provably
        answers them alike — and otherwise leads a group of its own.
        """
        requests = [pending.request for pending in batch]
        responses: list[StoreResponse | None] = [None] * len(batch)
        live: list[int] = []
        for i, request in enumerate(requests):
            if request.deadline is not None and request.deadline < now:
                responses[i] = StoreResponse(
                    request_id=request.request_id,
                    status=StoreStatus.EXPIRED_IN_QUEUE,
                    detail=(
                        f"deadline t={request.deadline:g} passed in queue "
                        f"(admission at t={now:g})"
                    ),
                )
            else:
                live.append(i)
        if self.config.coalesce:
            # Groups in order of their leaders' queue positions; the token
            # comparison runs only where a claimed key repeats in a round.
            members: list[list[int]] = []
            claimed: dict[tuple[str, str], list[list[int]]] = {}
            for i in live:
                request = requests[i]
                key = (request.capability.principal, request.obj.object_id)
                candidates = claimed.setdefault(key, [])
                for group in candidates:
                    if _same_auth_input(requests[group[0]], request):
                        group.append(i)
                        break
                else:
                    group = [i]
                    candidates.append(group)
                    members.append(group)
        else:
            members = [[i] for i in live]
        leaders = [requests[idxs[0]] for idxs in members]
        decisions = self.gateway.handle_batch(leaders, now=now)
        coalesced = 0
        for idxs, decision in zip(members, decisions):
            responses[idxs[0]] = decision
            leader = requests[idxs[0]]
            for j in idxs[1:]:
                coalesced += 1
                responses[j] = StoreResponse(
                    request_id=requests[j].request_id,
                    status=decision.status,
                    detail=(
                        f"coalesced with {leader.request_id}: {decision.detail}"
                    ),
                    decision=decision.decision,
                    cost_charged=0.0,
                    retry_after=decision.retry_after,
                )
        if coalesced:
            self.coalesced_total += coalesced
            if _OBS.enabled:
                _OBS.registry.counter(
                    "serve_coalesced_total",
                    "Requests answered from a coalesced sibling's decision",
                ).inc(coalesced)
        return responses

    def _finish(
        self, pending: _Pending, response: StoreResponse, t_decided: float
    ) -> None:
        latency = perf_counter() - pending.t0
        self.latencies_seconds.append(latency)
        self._account(response)
        if _OBS.enabled:
            _OBS.registry.histogram(
                "serve_admission_latency_seconds",
                "Wall-clock submit-to-decision latency of queued requests",
            ).observe(latency)
        if self.ledger is not None:
            self.ledger.record(
                pending.request,
                response,
                t_submit=pending.t_submit,
                t_decided=t_decided,
                seq=pending.seq,
            )
        if not pending.future.done():
            pending.future.set_result(response)


def serve(
    gateway: BesteffsGateway,
    requests,
    *,
    config: ServeConfig | None = None,
    ledger: ServeLedger | None = None,
) -> list[StoreResponse]:
    """Serve an iterable of requests through a fresh service and drain it.

    The synchronous convenience wrapper: spins up an event loop, starts a
    :class:`GatewayService`, submits every request open-loop (yielding to
    the worker between submissions so batching happens naturally), stops
    gracefully and returns the responses in submission order.
    """

    async def _run() -> list[StoreResponse]:
        service = GatewayService(gateway, config=config, ledger=ledger)
        await service.start()
        tasks = []
        for request in requests:
            tasks.append(asyncio.ensure_future(service.submit(request)))
            await asyncio.sleep(0)
        responses = await asyncio.gather(*tasks)
        await service.stop()
        return list(responses)

    return asyncio.run(_run())

"""The client-facing Besteffs write path: auth → fairness → placement.

Composes the distributed-control pieces the paper sketches for Besteffs
(Section 4.1) into one entry point.  A store request:

1. is **authenticated/authorised** against the caller's capability
   (signature, expiry, byte limit, initial-importance ceiling);
2. is **charged** against the principal's fair-share budget of
   byte-importance-minutes (refunded if the cluster later refuses);
3. is **deduplicated** when its object id is already resident:
   acknowledged against that copy at no cost;
4. otherwise runs the ordinary ``x``-sample / ``m``-try **placement** rule.

Every check is locally verifiable (HMAC capability, per-node or client-
side ledger), preserving the no-central-components property.

There is one write path, :meth:`BesteffsGateway.handle_batch`, which
judges one admission round of requests
(:class:`~repro.serve.protocol.StoreRequest`) at one clock and returns one
:class:`~repro.serve.protocol.StoreResponse` per request — the frozen
protocol the async service (:mod:`repro.serve.service`), load generator
and CLI speak.  :meth:`BesteffsGateway.handle` is a round of one.  The
per-gate counters live in ``repro.obs``
(``gateway_refusals_total{gate=...}``) with the old ``refusals`` dict kept
as a read-only view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.besteffs.auth import AuthError, CapabilityRealm
from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.fairness import (
    FairnessError,
    FairShareLedger,
    annotation_cost,
    importance_integral,
)
from repro.core.obj import StoredObject
from repro.obs import STATE as _OBS
from repro.serve.protocol import StoreRequest, StoreResponse, StoreStatus

__all__ = ["BesteffsGateway"]


@dataclass
class BesteffsGateway:
    """Authenticated, fairness-policed facade over a cluster."""

    cluster: BesteffsCluster
    realm: CapabilityRealm
    ledger: FairShareLedger
    #: Writes acknowledged against an already-resident copy instead of
    #: being re-placed (the cross-batch half of write dedup).
    deduped_total: int = 0
    _refusals: dict[str, int] = field(
        default_factory=lambda: {"auth": 0, "fairness": 0, "placement": 0},
        repr=False,
    )
    #: ``(prefix, node id) -> prefix + node id``: admitted responses' details,
    #: one string per node, not per response (a held ledger keeps them all).
    _details: dict[tuple[str, str], str] = field(default_factory=dict, repr=False)

    @property
    def refusals(self) -> Mapping[str, int]:
        """Read-only view of the per-gate refusal counters.

        Legacy shim: the live counters are the ``repro.obs`` series
        ``gateway_refusals_total{gate=...}`` (which survive metrics
        export/merge); this mapping mirrors them for callers that predate
        the obs wiring.
        """
        return MappingProxyType(self._refusals)

    def _detail(self, prefix: str, node_id: str) -> str:
        detail = self._details.get((prefix, node_id))
        if detail is None:
            detail = self._details[prefix, node_id] = prefix + node_id
        return detail

    def _count_refusal(self, gate: str) -> None:
        self._refusals[gate] = self._refusals.get(gate, 0) + 1
        if _OBS.enabled:
            _OBS.registry.counter(
                "gateway_refusals_total",
                "Store requests refused by the gateway, per gate",
                labelnames=("gate",),
            ).inc(gate=gate)

    def handle(self, request: StoreRequest, now: float | None = None) -> StoreResponse:
        """Run the write path for one :class:`StoreRequest`: a one-request round.

        ``now`` defaults to the payload's arrival time; the serving layer
        passes its batch clock instead so queued requests are judged at
        admission time, not submission time.
        """
        return self.handle_batch([request], request.obj.t_arrival if now is None else now)[0]

    def handle_batch(
        self, requests: list[StoreRequest], now: float
    ) -> list[StoreResponse]:
        """Run the write path for one admission round of requests.

        Every write runs the same gates in the same order — auth, fair
        share, dedup, placement — and placements happen in batch order, so
        the cluster RNG stream is that of a sequential run.  A round of one
        is :meth:`handle`.  Three batch-level savings on the hot path:

        * the importance integral of each distinct annotation is computed
          once per round (flash-crowd duplicates share one annotation);
        * the byte charges of a principal's writes merge into a single
          fair-share transaction (:meth:`FairShareLedger.charge_many`)
          whenever the whole group fits its remaining budget — which is
          outcome-equivalent to charging sequentially; groups that do not
          wholly fit fall back to per-request charges, preserving
          partial-admission semantics under budget pressure;
        * a write whose object id is already resident is **deduplicated**:
          acknowledged ``ADMITTED`` against the existing copy, with no
          charge and no placement walk.  A second copy of a short-lived
          object could never matter (Schmidt & Jensen), and re-offering
          the same id is how a flash crowd would otherwise melt the
          placement path.
        """
        n = len(requests)
        responses: list[StoreResponse | None] = [None] * n
        costs: list[float] = [0.0] * n
        by_principal: dict[str, list[int]] = {}
        integrals: dict[object, float] = {}
        for i, request in enumerate(requests):
            capability, obj = request.capability, request.obj
            try:
                self.realm.authorize_store(capability, obj, now)
            except AuthError as exc:
                self._count_refusal("auth")
                responses[i] = StoreResponse(
                    request_id=request.request_id,
                    status=StoreStatus.REJECTED_AUTH,
                    detail=str(exc),
                )
                continue
            try:
                integral = integrals[obj.lifetime]
            except (KeyError, TypeError):
                integral = importance_integral(obj.lifetime)
                try:
                    integrals[obj.lifetime] = integral
                except TypeError:
                    pass
            costs[i] = obj.size * integral
            by_principal.setdefault(capability.principal, []).append(i)

        precharged: set[str] = set()
        for principal, indexes in by_principal.items():
            group_costs = [costs[i] for i in indexes]
            try:
                self.ledger.charge_many(principal, group_costs, now)
            except FairnessError:
                continue  # fall back to sequential per-request charges
            precharged.add(principal)

        for i, request in enumerate(requests):
            if responses[i] is not None:
                continue
            principal, obj = request.capability.principal, request.obj
            cost = costs[i]
            if obj.object_id in self.cluster:
                if principal in precharged:
                    self.ledger.refund(principal, cost, now)
                self.deduped_total += 1
                if _OBS.enabled:
                    _OBS.registry.counter(
                        "gateway_deduped_total",
                        "Writes acknowledged against an already-resident copy",
                    ).inc()
                holder = self.cluster.locate(obj.object_id)
                responses[i] = StoreResponse(
                    request_id=request.request_id,
                    status=StoreStatus.ADMITTED,
                    detail=self._detail("deduplicated: already resident on ", holder.node_id),
                    cost_charged=0.0,
                )
                continue
            if principal not in precharged:
                try:
                    self.ledger.charge(principal, obj, now)
                except FairnessError as exc:
                    self._count_refusal("fairness")
                    responses[i] = StoreResponse(
                        request_id=request.request_id,
                        status=StoreStatus.REJECTED_FAIRNESS,
                        detail=str(exc),
                        retry_after=self._fairness_retry_after(obj, now),
                    )
                    continue
            decision, _result = self.cluster.offer(obj, now)
            if not decision.placed:
                self.ledger.refund(principal, cost, now)
                self._count_refusal("placement")
                responses[i] = StoreResponse(
                    request_id=request.request_id,
                    status=StoreStatus.REJECTED_PLACEMENT,
                    detail="cluster full for this object's importance",
                    decision=decision,
                    cost_charged=0.0,
                )
                continue
            responses[i] = StoreResponse(
                request_id=request.request_id,
                status=StoreStatus.ADMITTED,
                detail=self._detail("placed on ", decision.node_id),
                decision=decision,
                cost_charged=cost,
            )
        return responses

    def _fairness_retry_after(self, obj: StoredObject, now: float) -> float | None:
        """Minutes until the next budget period, or None if retry is futile.

        An infinite-cost annotation (persistent data) is refused in every
        period, so no retry hint is offered.
        """
        if math.isinf(annotation_cost(obj)):
            return None
        period = self.ledger.period_minutes
        return period - (now % period)

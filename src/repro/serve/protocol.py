"""The frozen, transport-agnostic request/response protocol of the serving layer.

A *served* store needs what a bare ``(capability, obj, now)`` call cannot
express: queuing, shedding, retries, deadlines and batching.  This module
is the one surface the gateway (:mod:`repro.besteffs.gateway`), the async
service (:mod:`repro.serve.service`), the load generator
(:mod:`repro.serve.loadgen`), the CLI and the metrics all speak:

* :class:`StoreRequest` — capability + payload descriptor + a
  client-assigned request id + an optional absolute deadline after which
  admission is pointless (queued writes whose importance has waned are
  dropped, per the short-lived-data argument in PAPERS.md);
* :class:`StoreResponse` — a closed status taxonomy
  (:class:`StoreStatus`), the placement decision, the fair-share cost
  charged, and a ``retry_after`` hint (minutes) for shed or
  fairness-refused requests.

Both sides are frozen dataclasses carrying *simulation-time fields only* —
no wall-clock — so a seeded closed-loop run writes a byte-identical
request/response ledger across invocations (:mod:`repro.serve.ledger`
flattens a pair into the scalars of its line and spells the line's keys).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:  # imported for annotations only — a runtime import would
    # recreate the besteffs → gateway → serve.protocol cycle this module
    # is carefully kept out of.
    from repro.besteffs.auth import Capability
    from repro.besteffs.placement import PlacementDecision
    from repro.core.obj import StoredObject

__all__ = ["ServeError", "StoreStatus", "StoreRequest", "StoreResponse"]


class ServeError(ReproError):
    """A serving-layer request or configuration is malformed."""


class StoreStatus(str, enum.Enum):
    """Closed outcome taxonomy of one served store request.

    The three ``REJECTED_*`` members map 1:1 onto the gateway's gates
    (:attr:`StoreStatus.gate`); ``SHED_BACKPRESSURE`` and
    ``EXPIRED_IN_QUEUE`` are serving-layer outcomes (the request never
    completed the write path at all).
    """

    ADMITTED = "admitted"
    REJECTED_AUTH = "rejected-auth"
    REJECTED_FAIRNESS = "rejected-fairness"
    REJECTED_PLACEMENT = "rejected-placement"
    SHED_BACKPRESSURE = "shed-backpressure"
    EXPIRED_IN_QUEUE = "expired-in-queue"

    @property
    def gate(self) -> str | None:
        """The refusal gate label, or None for admitted/serving outcomes."""
        return _GATES.get(self)

    @property
    def retryable(self) -> bool:
        """Whether re-submitting the same request later can succeed."""
        return self in (
            StoreStatus.REJECTED_FAIRNESS,
            StoreStatus.REJECTED_PLACEMENT,
            StoreStatus.SHED_BACKPRESSURE,
        )


_GATES = {
    StoreStatus.REJECTED_AUTH: "auth",
    StoreStatus.REJECTED_FAIRNESS: "fairness",
    StoreStatus.REJECTED_PLACEMENT: "placement",
    StoreStatus.EXPIRED_IN_QUEUE: "deadline",
    StoreStatus.SHED_BACKPRESSURE: "backpressure",
}


@dataclass(frozen=True)
class StoreRequest:
    """One client store request: capability, payload descriptor, id, deadline.

    Parameters
    ----------
    capability:
        The caller's HMAC capability (authenticates and authorises).
    obj:
        The annotated payload descriptor; ``obj.t_arrival`` doubles as the
        default submission time when the service is driven in sim time.
    request_id:
        Client-assigned idempotency id; auto-derived from the object id
        when omitted.
    deadline:
        Absolute simulation time (minutes) after which admitting the
        request is pointless; a queued request whose deadline passes is
        answered ``EXPIRED_IN_QUEUE`` instead of occupying a placement
        round.
    """

    capability: Capability
    obj: StoredObject
    request_id: str = ""
    deadline: float | None = None

    def __post_init__(self) -> None:
        if not self.request_id:
            object.__setattr__(self, "request_id", f"req-{self.obj.object_id}")
        if self.deadline is not None:
            d = float(self.deadline)
            if math.isnan(d) or d < self.obj.t_arrival:
                raise ServeError(
                    f"deadline {self.deadline!r} precedes arrival "
                    f"t={self.obj.t_arrival:g} for {self.request_id!r}"
                )
            object.__setattr__(self, "deadline", d)

    @property
    def principal(self) -> str:
        return self.capability.principal


@dataclass(frozen=True)
class StoreResponse:
    """The service's answer to one :class:`StoreRequest`."""

    request_id: str
    status: StoreStatus
    detail: str = ""
    decision: PlacementDecision | None = None
    cost_charged: float = 0.0
    #: Minutes the client should wait before retrying (shed / fairness),
    #: ``None`` when retrying would not help (auth) or is unnecessary.
    retry_after: float | None = None

    @property
    def stored(self) -> bool:
        return self.status is StoreStatus.ADMITTED

"""Deterministic request routing across gateway shards.

Horizontal serving partitions one Besteffs deployment into ``shards``
gateway shards — contiguous node slices cut with
:func:`repro.sim.shard.shard_slice`, each fronted by its own
:class:`~repro.serve.service.GatewayService` — and routes every
:class:`~repro.serve.protocol.StoreRequest` to exactly one shard:

* the **home shard** is a pure hash of the placement key (the object id):
  stable across runs, shard counts permitting, and machines, so replays
  of the same stream route identically everywhere;
* **saturation-aware spill** (HTM-EAR's routing-under-saturation
  argument in PAPERS.md): when the home shard's *offered load* — the
  number of requests routed to it within a sliding sim-time window —
  is at or above ``high_water``, the request spills to the least-loaded
  shard instead (ties break toward the lowest shard id).

Offered load is tracked from the request stream itself, **not** from live
queue depths: queue depth is a scheduling artifact (it differs between
inline and worker-process execution), while the offered-load window is a
pure function of the ordered request stream.  That is what lets a parent
process and N shard workers compute the *same* routing plan
independently — the plan is replayed, never communicated.

Like everything outcome-relevant in the reproduction, the window runs on
simulation time (minutes).
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

from repro.serve.protocol import ServeError, StoreRequest

__all__ = [
    "SPILL_POLICIES",
    "RouterConfig",
    "RoutingDecision",
    "ShardRouter",
    "home_shard",
    "plan_routes",
]

SPILL_POLICIES = ("overflow", "never")


@lru_cache(maxsize=1024)
def home_shard(object_id: str, shards: int) -> int:
    """The stable home shard of a placement key.

    SHA-256 of the object id, reduced mod ``shards`` — independent of
    ``PYTHONHASHSEED``, process, and platform, so every participant
    (parent planner, shard workers, a future client library) agrees on
    the home without coordination.  A pure function of immutable keys, so
    the hot ids of a flash crowd are hashed once; the memo is bounded
    because most ids are seen exactly once.
    """
    if shards < 1:
        raise ServeError(f"shards must be >= 1, got {shards}")
    digest = hashlib.sha256(f"serve-route|{object_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % shards


@dataclass(frozen=True)
class RouterConfig:
    """Routing policy of one sharded serving deployment."""

    shards: int = 4
    #: "overflow" spills past-high-water homes to the least-loaded shard;
    #: "never" always routes home (the control arm of spill sweeps).
    spill: str = "overflow"
    #: Offered-load threshold (requests in the window) at which the home
    #: shard is considered saturated.
    high_water: int = 64
    #: Sliding offered-load window, simulated minutes.
    window_minutes: float = 1440.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ServeError(f"shards must be >= 1, got {self.shards}")
        if self.spill not in SPILL_POLICIES:
            raise ServeError(
                f"spill must be one of {SPILL_POLICIES}, got {self.spill!r}"
            )
        if self.high_water < 1:
            raise ServeError(f"high_water must be >= 1, got {self.high_water}")
        if self.window_minutes <= 0:
            raise ServeError(
                f"window_minutes must be > 0, got {self.window_minutes}"
            )


@dataclass(frozen=True)
class RoutingDecision:
    """Where one request went, and why."""

    shard: int
    home: int

    @property
    def spilled(self) -> bool:
        return self.shard != self.home


@dataclass
class ShardRouter:
    """Stateful router: hash-home placement plus offered-load spill.

    The router must see the request stream in a fixed order (arrival
    order, in the load generator); its decisions are then a pure function
    of that stream, so independent replays produce identical plans.
    """

    config: RouterConfig = field(default_factory=RouterConfig)
    #: Requests routed per shard (lifetime, not windowed).
    routed_by_shard: list[int] = field(init=False)
    spilled_total: int = field(init=False, default=0)
    _windows: list[deque] = field(init=False, repr=False)
    #: ``_decisions[shard][home]``: decisions are immutable, so every
    #: request routed alike shares one.
    _decisions: list[list[RoutingDecision]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        shards = range(self.config.shards)
        self.routed_by_shard = [0] * self.config.shards
        self._windows = [deque() for _ in shards]
        self._decisions = [[RoutingDecision(s, home) for home in shards] for s in shards]

    def offered_load(self, shard: int, now: float) -> int:
        """Requests routed to ``shard`` within the trailing window."""
        horizon = now - self.config.window_minutes
        window = self._windows[shard]
        while window and window[0] <= horizon:
            window.popleft()
        return len(window)

    def route(self, request: StoreRequest, now: float | None = None) -> RoutingDecision:
        """Assign one request to a shard and account for it."""
        if now is None:
            now = request.obj.t_arrival
        config = self.config
        windows = self._windows
        home = home_shard(request.obj.object_id, config.shards)
        target = home
        # Trimmed on every append, whether or not this router can spill:
        # a window holds the trailing ``window_minutes``, not the stream.
        horizon = now - config.window_minutes
        for window in windows:
            while window and window[0] <= horizon:
                window.popleft()
        if (
            config.spill == "overflow"
            and config.shards > 1
            and len(windows[home]) >= config.high_water
        ):
            loads = [len(w) for w in windows]
            least = loads.index(min(loads))  # ties: the lowest shard id
            if loads[least] < loads[home]:
                target = least
        if target != home:
            self.spilled_total += 1
        self.routed_by_shard[target] += 1
        windows[target].append(now)
        return self._decisions[target][home]


def plan_routes(
    requests, config: RouterConfig
) -> tuple[list[RoutingDecision], ShardRouter]:
    """Route a whole stream (in order) and return the plan plus the router.

    The plan is the deterministic artifact shard workers replay: worker
    ``k`` regenerates the stream, calls this with the same config, and
    serves exactly the requests whose decision names shard ``k``.
    """
    router = ShardRouter(config=config)
    return [router.route(request) for request in requests], router

"""``repro.serve`` — the concurrent serving front-end over Besteffs.

The ROADMAP's "serve the store, don't just simulate it" subsystem:

* :mod:`repro.serve.protocol` — the frozen request/response surface
  (:class:`StoreRequest`, :class:`StoreResponse`, :class:`StoreStatus`);
* :mod:`repro.serve.service` — the asyncio :class:`GatewayService` with
  batched admission, bounded queues + backpressure shedding, rate
  limiting and graceful drain, plus the synchronous :func:`serve` helper;
* :mod:`repro.serve.ratelimit` — per-principal token buckets in sim time;
* :mod:`repro.serve.ledger` — the canonical-bytes request/response JSONL
  ledger (byte-identical across seeded runs);
* :mod:`repro.serve.loadgen` — what a serving experiment is: the spec,
  its deployment, its seeded request stream replayed as closed/open-loop
  client sessions, and the report;
* :mod:`repro.serve.router` — deterministic hash-home request routing
  across gateway shards with saturation-aware spill;
* :mod:`repro.serve.sharded` — the one serving path: one
  :class:`GatewayService` per node slice (a single gateway is the fleet
  of one), globally-sequenced per-shard ledgers merged into one run-wide
  artifact.

Only the protocol is imported eagerly: the gateway itself speaks
:class:`StoreRequest`/:class:`StoreResponse`, so this package must be
importable from :mod:`repro.besteffs.gateway` without circularity.  The
service and loadgen surfaces load lazily on first attribute access.
"""

from repro.serve.protocol import ServeError, StoreRequest, StoreResponse, StoreStatus

__all__ = [
    "GatewayService",
    "LoadGenReport",
    "LoadGenSpec",
    "RouterConfig",
    "ServeConfig",
    "ServeError",
    "ServeLedger",
    "ShardRouter",
    "StoreRequest",
    "StoreResponse",
    "StoreStatus",
    "TokenBucketLimiter",
    "home_shard",
    "plan_routes",
    "run_loadgen",
    "run_sharded",
    "serve",
]

_LAZY = {
    "GatewayService": "repro.serve.service",
    "ServeConfig": "repro.serve.service",
    "serve": "repro.serve.service",
    "ServeLedger": "repro.serve.ledger",
    "TokenBucketLimiter": "repro.serve.ratelimit",
    "LoadGenSpec": "repro.serve.loadgen",
    "LoadGenReport": "repro.serve.loadgen",
    "run_loadgen": "repro.serve.loadgen",
    "RouterConfig": "repro.serve.router",
    "ShardRouter": "repro.serve.router",
    "home_shard": "repro.serve.router",
    "plan_routes": "repro.serve.router",
    "run_sharded": "repro.serve.sharded",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

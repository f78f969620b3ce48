"""In-situ layer tracing from outside ``src/``.

:func:`install` rebinds the public callables listed in :data:`TARGETS` to
timing wrappers — class attributes on their class, module functions in
every loaded ``repro.*`` namespace that imported them by name — so each
call into a layer is timed where the real workloads make it (Brown's
point in PAPERS.md: reclamation looks free in a microbench and is not in
situ).  Per span name the tracer keeps ``calls``, ``total_s``, ``self_s``
(duration minus the time covered by child spans) and an optional result
``count`` for **every** call, and full span records for a deterministic
1-in-:data:`SAMPLE_ONE_IN` sample of operations, all in memory.

The workloads are single-threaded and their only coroutines are the
closed-loop clients, so one explicit frame stack is enough: a span's
parent is whatever frame is open when it starts.  The async service is
traced as one ``service.window`` frame per ``start()``→``stop()``; every
synchronous call the event loop makes in between nests under it.

Not wrapped on purpose: ``repro.core.admission.importance_order`` —
``plan_preemptive_admission`` compares its ``order`` argument to that
module global by identity, so rebinding it would switch every plan to
the full-sort path.  Its use is counted through
``ImportanceIndex.victim_candidates``, which only the sort fallback calls.
"""

from __future__ import annotations

import importlib
import json
import sys
import zlib
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, NamedTuple

__all__ = ["SAMPLE_ONE_IN", "TARGETS", "Tracer", "install", "resolve"]

#: One operation in this many has its full span tree recorded.
SAMPLE_ONE_IN = 64


def _sampled(op_id: str) -> bool:
    # crc32, not hash(): str hashes are salted per process and the sample
    # must name the same operations in every run.
    return zlib.crc32(op_id.encode()) % SAMPLE_ONE_IN == 0


class Tracer:
    """Aggregates and sampled spans of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.count: list[int] = []
        #: Open frames, innermost last: ``[child_seconds, span_id]``.
        self.stack: list[list] = []
        #: ``(span_id, name_index, start, end, parent_span_id, op_id)``.
        self.spans: list[tuple] = []
        #: Object id of the sampled operation in flight, else None.
        self.op: str | None = None
        self._windows: dict[int, tuple[list, float, list | None]] = {}

    def _index(self, name: str) -> int:
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        for column in (self.calls, self.count):
            column.append(0)
        for column in (self.total_s, self.self_s):
            column.append(0.0)
        return len(self.names) - 1

    def _open(self) -> tuple[list, list | None]:
        parent = self.stack[-1] if self.stack else None
        frame = [0.0, -1]
        if self.op is not None:
            frame[1] = len(self.spans)
            self.spans.append(())  # slot filled on close; keeps ids = positions
        self.stack.append(frame)
        return frame, parent

    def _close(
        self, idx: int, frame: list, parent: list | None, t0: float, t1: float
    ) -> None:
        self.stack.pop()
        duration = t1 - t0
        self.calls[idx] += 1
        self.total_s[idx] += duration
        self.self_s[idx] += duration - frame[0]
        if parent is not None:
            parent[0] += duration
        if frame[1] >= 0:
            self.spans[frame[1]] = (
                frame[1], idx, t0, t1, -1 if parent is None else parent[1], self.op
            )

    # -- wrappers ----------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        op_of: Callable[[tuple], str] | None = None,
        count_of: Callable[[Any], int] | None = None,
    ) -> Callable:
        """Time every call of the synchronous ``fn`` as span ``name``.

        ``op_of`` marks an operation boundary: it maps the call's
        positional arguments to the operation's object id, which decides
        whether the whole subtree is span-recorded.  ``count_of`` maps the
        return value to an integer added to the span's ``count``.
        """
        idx = self._index(name)
        tracer = self

        def traced(*args, **kwargs):
            began_op = False
            if op_of is not None and tracer.op is None:
                op_id = op_of(args)
                if _sampled(op_id):
                    tracer.op = op_id
                    began_op = True
            frame, parent = tracer._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count_of is not None:
                    tracer.count[idx] += count_of(result)
                return result
            finally:
                tracer._close(idx, frame, parent, t0, perf_counter())
                if began_op:
                    tracer.op = None

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Time each ``next()`` of the generator ``fn`` returns.

        A generator function returns before doing any work, so the span
        covers the resumptions; ``count`` is the number of items yielded.
        """
        idx = self._index(name)
        tracer = self

        def timed_iter(iterator):
            while True:
                frame, parent = tracer._open()
                t0 = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx, frame, parent, t0, perf_counter())
                tracer.count[idx] += 1
                yield item

        def traced(*args, **kwargs):
            return timed_iter(iter(fn(*args, **kwargs)))

        traced.__wrapped__ = fn
        return traced

    def wrap_window(self, start: Callable, stop: Callable, name: str):
        """One frame from ``await start(self)`` until ``await stop(self)`` ends."""
        idx = self._index(name)
        tracer = self

        async def traced_start(service, *args, **kwargs):
            frame, parent = tracer._open()
            tracer._windows[id(service)] = (frame, perf_counter(), parent)
            return await start(service, *args, **kwargs)

        async def traced_stop(service, *args, **kwargs):
            try:
                return await stop(service, *args, **kwargs)
            finally:
                window = tracer._windows.pop(id(service), None)
                if window is not None:
                    frame, t0, parent = window
                    tracer._close(idx, frame, parent, t0, perf_counter())

        return traced_start, traced_stop

    # -- results -----------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """``{span name: {calls, total_s, self_s, count}}`` so far."""
        return {
            name: {
                "calls": self.calls[i],
                "total_s": self.total_s[i],
                "self_s": self.self_s[i],
                "count": self.count[i],
            }
            for i, name in enumerate(self.names)
        }

    def write_spans(self, path: Path, header: dict[str, Any]) -> int:
        """Write the sampled spans as JSONL (header line first); returns the count."""
        spans = [span for span in self.spans if span]
        origin = min((span[2] for span in spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            header = {**header, "sample_one_in": SAMPLE_ONE_IN, "spans": len(spans)}
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, idx, t0, t1, parent, op_id in spans:
                out.write(
                    json.dumps(
                        {
                            "span": span_id,
                            "name": self.names[idx],
                            "start": t0 - origin,
                            "end": t1 - origin,
                            "parent": None if parent < 0 else parent,
                            "op_id": op_id,
                        }
                    )
                    + "\n"
                )
        return len(spans)


class Target(NamedTuple):
    """One public callable to wrap: ``where`` is ``module:attr`` or
    ``module:Class.attr``."""

    span: str
    where: str
    op_of: Callable[[tuple], str] | None = None
    count_of: Callable[[Any], int] | None = None
    generator: bool = False


def _obj_at(position: int) -> Callable[[tuple], str]:
    return lambda args: args[position].object_id


#: Span name = ``<layer>.<callable>``; the layer is the module the
#: callable is defined in (ISSUE 11's layer table).
TARGETS: tuple[Target, ...] = (
    Target("loadgen.build_requests", "repro.serve.loadgen:build_requests"),
    Target("loadgen.build_gateway", "repro.serve.loadgen:build_gateway"),
    Target("loadgen.build_gateway", "repro.serve.sharded:build_shard_gateway"),
    Target("loadgen.retry_after_histogram", "repro.serve.loadgen:retry_after_histogram"),
    Target(
        "workload.arrivals",
        "repro.sim.workload.university:UniversityWorkload.arrivals",
        generator=True,
    ),
    Target("router.plan_routes", "repro.serve.router:plan_routes",
           count_of=lambda result: len(result[0])),
    Target("ledger.record", "repro.serve.ledger:ServeLedger.record",
           op_of=lambda args: args[1].obj.object_id),
    Target("ledger.canonical", "repro.serve.ledger:ServeLedger.canonical_bytes"),
    Target("ledger.canonical", "repro.serve.ledger:ServeLedger.keyed_lines"),
    Target("ledger.canonical", "repro.serve.ledger:FrozenServeLedger.canonical_bytes"),
    Target("ledger.canonical", "repro.serve.ledger:FrozenServeLedger.entry_dicts"),
    Target("ledger.canonical", "repro.serve.ledger:merge_ledger_lines"),
    Target("gateway.handle_batch", "repro.besteffs.gateway:BesteffsGateway.handle_batch"),
    Target("auth.authorize_store", "repro.besteffs.auth:CapabilityRealm.authorize_store",
           op_of=_obj_at(2)),
    Target("fairness.charge", "repro.besteffs.fairness:FairShareLedger.charge",
           op_of=_obj_at(2)),
    Target("fairness.charge", "repro.besteffs.fairness:FairShareLedger.charge_many"),
    Target("fairness.charge", "repro.besteffs.fairness:FairShareLedger.refund"),
    Target("fairness.integral", "repro.besteffs.fairness:importance_integral"),
    Target("cluster.offer", "repro.besteffs.cluster:BesteffsCluster.offer",
           op_of=_obj_at(1)),
    Target("placement.choose_unit", "repro.besteffs.placement:choose_unit"),
    Target("walks.sample_nodes", "repro.besteffs.walks:sample_nodes"),
    Target("store.peek_admission", "repro.core.store:StorageUnit.peek_admission"),
    Target("store.offer", "repro.core.store:StorageUnit.offer", op_of=_obj_at(1)),
    Target("store.reclaim_expired", "repro.core.store:StorageUnit.reclaim_expired"),
    Target("admission.plan", "repro.core.admission:plan_preemptive_admission",
           count_of=lambda plan: len(plan.victims)),
    Target("index.advance", "repro.core.index:ImportanceIndex.advance"),
    Target("index.mutate", "repro.core.index:ImportanceIndex.add"),
    Target("index.mutate", "repro.core.index:ImportanceIndex.discard"),
    Target("index.victims", "repro.core.index:ImportanceIndex.greedy_victims"),
    Target("index.sorted_fallback", "repro.core.index:ImportanceIndex.victim_candidates"),
    Target("index.mass", "repro.core.index:ImportanceIndex.exact_mass"),
    Target("index.mass", "repro.core.index:ImportanceIndex.closed_form_mass"),
    Target("victims.merge", "repro.core.victims:GroupedResidents.greedy_victims",
           count_of=lambda merged: len(merged[0]) if merged is not None else 0),
    Target("slab.mutate", "repro.core.slab:ResidentSlab.add"),
    Target("slab.mutate", "repro.core.slab:ResidentSlab.discard"),
    Target("density.probe", "repro.core.density:importance_density"),
    Target("engine.run", "repro.sim.engine:SimulationEngine.run",
           count_of=lambda dispatched: dispatched),
    Target("recorder.record", "repro.sim.recorder:Recorder.record_arrival"),
    Target("recorder.record", "repro.sim.recorder:Recorder.sample_density"),
    Target("parallel.run_specs", "repro.sim.parallel:run_specs"),
)


def _rebind(owner: Any, attr: str, original: Any, wrapper: Any) -> None:
    """Bind ``wrapper`` wherever ``original`` is reachable by name."""
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def resolve(where: str) -> tuple[Any, str, Any]:
    """``(owner, attribute name, current value)`` of a ``Target.where`` path."""
    module_name, _, path = where.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr, vars(owner)[attr]


def install(tracer: Tracer) -> None:
    """Rebind every :data:`TARGETS` callable (and the service window)."""
    # Import every defining module first, so each by-name import site
    # exists before any global is compared against an original.
    resolved = [(target, *resolve(target.where)) for target in TARGETS]
    for target, owner, attr, original in resolved:
        if target.generator:
            wrapper = tracer.wrap_generator(original, target.span)
        else:
            wrapper = tracer.wrap(
                original, target.span, op_of=target.op_of, count_of=target.count_of
            )
        _rebind(owner, attr, original, wrapper)
    service = importlib.import_module("repro.serve.service").GatewayService
    service.start, service.stop = tracer.wrap_window(
        service.start, service.stop, "service.window"
    )

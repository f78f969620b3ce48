"""The metric ledger: names, units, direction, and what should move what.

``END_TO_END`` and ``PER_LAYER`` are the names ``BENCHMARK.json`` lists
(``test_smoke.py`` holds the two in step).  Every per-layer metric
records, *before* any optimisation is measured, which end-to-end metric
it should move on which workload — the prediction a later perf PR is
judged against.  ``*`` as the workload means every workload.
"""

from __future__ import annotations

from typing import Any, NamedTuple

__all__ = ["END_TO_END", "PER_LAYER", "LayerMetric", "layer_metrics", "validity"]

#: ``name -> (unit, better)``; bounds live in ``BENCHMARK.json`` only.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "latency_p50_us": ("us", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    #: ``(end-to-end metric, workload)`` pairs this metric should move.
    moves: tuple[tuple[str, str], ...]


_SERVE = ("serve_pressure", "serve_flash")
_PLACED = ("serve_pressure", "sim_cluster")
_STORE = ("sim_single", "sim_cluster", "serve_pressure")


def _moves(metrics: tuple[str, ...] | str, workloads: tuple[str, ...] | str):
    metrics = (metrics,) if isinstance(metrics, str) else metrics
    workloads = (workloads,) if isinstance(workloads, str) else workloads
    return tuple((m, w) for m in metrics for w in workloads)


def _layer(moves, *metrics: tuple[str, str, str]) -> list[LayerMetric]:
    return [LayerMetric(name, unit, better, moves) for name, unit, better in metrics]


PER_LAYER: tuple[LayerMetric, ...] = (
    *_layer(
        _moves("wall_s", "serve_flash"),  # rebuilt once per shard; flat elsewhere
        ("loadgen.build_requests_calls", "count", "lower"),
        ("loadgen.build_requests_s", "s", "lower"),
        ("loadgen.build_gateway_s", "s", "lower"),
        ("loadgen.report_s", "s", "lower"),
    ),
    *_layer(
        _moves("wall_s", "*"),  # <= 6 % share everywhere
        ("workload.objects", "count", "lower"),
        ("workload.synth_s", "s", "lower"),
    ),
    *_layer(
        _moves("wall_s", "serve_flash"),
        ("router.plan_calls", "count", "lower"),
        ("router.plan_s", "s", "lower"),
        ("router.routes", "count", "lower"),
        ("router.spilled", "count", "lower"),
    ),
    *_layer(
        # small on serve_pressure, absent (0) on sim_*
        _moves(("latency_p50_us", "ops_per_s"), "serve_flash"),
        ("service.window_s", "s", "lower"),
        ("service.self_s", "s", "lower"),
        ("service.batches", "count", "lower"),
        ("service.batch_size_mean", "count", "higher"),
        ("service.coalesced", "count", "higher"),
        ("service.queue_peak", "count", "lower"),
        ("service.shed", "count", "lower"),
        ("service.latency_p90_us", "us", "lower"),
        ("service.latency_p99_us", "us", "lower"),
        ("service.latency_max_us", "us", "lower"),
    ),
    *_layer(
        _moves(("wall_s", "peak_rss_mib"), "serve_flash"),
        ("ledger.record_calls", "count", "lower"),
        ("ledger.record_s", "s", "lower"),
        ("ledger.canonical_s", "s", "lower"),
        ("ledger.bytes", "count", "lower"),
    ),
    *_layer(
        _moves("latency_p50_us", "serve_flash"),
        ("gateway.batch_calls", "count", "lower"),
        ("gateway.self_s", "s", "lower"),
        ("gateway.deduped", "count", "higher"),
        ("gateway.refused_fairness", "count", "lower"),
        ("gateway.refused_placement", "count", "lower"),
    ),
    *_layer(
        _moves("ops_per_s", "serve_flash"),  # ~8 % there
        ("auth.calls", "count", "lower"),
        ("auth.s", "s", "lower"),
    ),
    *_layer(
        _moves("ops_per_s", _SERVE),
        ("fairness.calls", "count", "lower"),
        ("fairness.s", "s", "lower"),
        ("fairness.transactions", "count", "lower"),
    ),
    *_layer(
        _moves("ops_per_s", _PLACED),
        ("cluster.offer_calls", "count", "lower"),
        ("cluster.self_s", "s", "lower"),
    ),
    *_layer(
        # 0 on sim_single
        _moves(("ops_per_s", "latency_p50_us"), "serve_pressure")
        + _moves("wall_s", "sim_cluster"),
        ("placement.calls", "count", "lower"),
        ("placement.self_s", "s", "lower"),
        ("placement.rounds_mean", "count", "lower"),
        ("placement.probes_per_offer", "count", "lower"),
        ("placement.placed_share", "ratio", "higher"),
        ("walks.calls", "count", "lower"),
        ("walks.s", "s", "lower"),
    ),
    *_layer(
        _moves("wall_s", _STORE),
        ("store.peek_calls", "count", "lower"),
        ("store.peek_s", "s", "lower"),
        ("store.offer_calls", "count", "lower"),
        ("store.offer_self_s", "s", "lower"),
        ("store.evictions", "count", "lower"),
        ("store.reclaim_s", "s", "lower"),
    ),
    *_layer(
        # sim_single most
        _moves("wall_s", "sim_single") + _moves("latency_p50_us", "serve_pressure"),
        ("admission.plan_calls", "count", "lower"),
        ("admission.plan_s", "s", "lower"),
        ("admission.victims_per_plan", "count", "lower"),
        ("admission.sorted_fallback_calls", "count", "lower"),
    ),
    *_layer(
        _moves("wall_s", "sim_single"),
        ("index.advance_s", "s", "lower"),
        ("index.mutate_s", "s", "lower"),
        ("index.victims_s", "s", "lower"),
        ("index.mass_s", "s", "lower"),
    ),
    *_layer(
        # ~0 on serve_flash
        _moves("wall_s", ("sim_single", "serve_pressure")),
        ("victims.merge_calls", "count", "lower"),
        ("victims.merge_s", "s", "lower"),
        ("victims.returned_per_call", "count", "lower"),
    ),
    *_layer(
        _moves(("wall_s", "peak_rss_mib"), "sim_single"),
        ("slab.mutate_s", "s", "lower"),
    ),
    *_layer(
        _moves("wall_s", "sim_single"),  # the read path
        ("density.probe_calls", "count", "lower"),
        ("density.probe_s", "s", "lower"),
        ("engine.events", "count", "lower"),
        ("engine.self_s", "s", "lower"),
    ),
    *_layer(
        _moves(("wall_s", "peak_rss_mib"), ("sim_cluster", "sim_single")),
        ("recorder.calls", "count", "lower"),
        ("recorder.s", "s", "lower"),
    ),
    *_layer(
        _moves("wall_s", "serve_flash"),
        ("parallel.run_specs_self_s", "s", "lower"),
    ),
    *_layer(
        _moves("wall_s", "*"),  # what tracing itself costs, and what it misses
        ("trace.spans", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("other.self_s", "s", "lower"),
    ),
)

_EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}


def layer_metrics(traced: dict[str, Any], untraced_wall_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` value from one traced child report.

    Times are seconds inside the traced entry-point call (so they carry
    the tracing overhead ``trace.overhead_ratio`` states), at the quiet
    reference box's speed like the end-to-end times, and are **self**
    times — what making that layer's own code free would save; the self
    column of the printed span table sums to the traced wall — except
    four envelopes that include their children: ``service.window_s``,
    ``store.peek_s``, ``store.reclaim_s`` and ``density.probe_s``.
    Counts repeat exactly for a given seed and ``--seconds``.
    """
    counts, speed = traced["counts"], traced["speed"]
    table = {
        name: {**row, "total_s": row["total_s"] * speed, "self_s": row["self_s"] * speed}
        for name, row in traced["table"].items()
    }

    def span(name: str) -> dict[str, float]:
        return table.get(name, _EMPTY)

    def per(total: float, calls: float) -> float:
        return total / calls if calls else 0.0

    window = span("service.window")
    plan = span("admission.plan")
    merge = span("victims.merge")
    choose = span("placement.choose_unit")
    values = {
        "loadgen.build_requests_calls": span("loadgen.build_requests")["calls"],
        "loadgen.build_requests_s": span("loadgen.build_requests")["self_s"],
        "loadgen.build_gateway_s": span("loadgen.build_gateway")["self_s"],
        "loadgen.report_s": span("loadgen.retry_after_histogram")["self_s"],
        "workload.objects": span("workload.arrivals")["count"],
        "workload.synth_s": span("workload.arrivals")["self_s"],
        "router.plan_calls": span("router.plan_routes")["calls"],
        "router.plan_s": span("router.plan_routes")["self_s"],
        "router.routes": span("router.plan_routes")["count"],
        "router.spilled": counts.get("spilled", 0),
        "service.window_s": window["total_s"],
        "service.self_s": window["self_s"],
        "service.batches": counts.get("batches", 0),
        "service.batch_size_mean": counts.get("batch_size_mean", 0.0),
        "service.coalesced": counts.get("coalesced", 0),
        "service.queue_peak": counts.get("queue_peak", 0),
        "service.shed": counts.get("shed", 0),
        "service.latency_p90_us": traced["latency_p90_us"] if window["calls"] else 0.0,
        "service.latency_p99_us": traced["latency_p99_us"] if window["calls"] else 0.0,
        "service.latency_max_us": traced["latency_max_us"] if window["calls"] else 0.0,
        "ledger.record_calls": span("ledger.record")["calls"],
        "ledger.record_s": span("ledger.record")["self_s"],
        "ledger.canonical_s": span("ledger.canonical")["self_s"],
        "ledger.bytes": counts.get("ledger_bytes", 0),
        "gateway.batch_calls": span("gateway.handle_batch")["calls"],
        "gateway.self_s": span("gateway.handle_batch")["self_s"],
        "gateway.deduped": counts.get("deduped", 0),
        "gateway.refused_fairness": counts.get("refused_fairness", 0),
        "gateway.refused_placement": counts.get("refused_placement", 0),
        "auth.calls": span("auth.authorize_store")["calls"],
        "auth.s": span("auth.authorize_store")["self_s"],
        "fairness.calls": span("fairness.charge")["calls"] + span("fairness.integral")["calls"],
        "fairness.s": span("fairness.charge")["self_s"] + span("fairness.integral")["self_s"],
        "fairness.transactions": counts.get("fairness_transactions", 0),
        "cluster.offer_calls": span("cluster.offer")["calls"],
        "cluster.self_s": span("cluster.offer")["self_s"],
        "placement.calls": choose["calls"],
        "placement.self_s": choose["self_s"],
        "placement.rounds_mean": per(span("walks.sample_nodes")["calls"], choose["calls"]),
        "placement.probes_per_offer": per(span("store.peek_admission")["calls"], choose["calls"]),
        "placement.placed_share": per(
            counts.get("placed", 0), counts.get("placed", 0) + counts.get("rejected", 0)
        ),
        "walks.calls": span("walks.sample_nodes")["calls"],
        "walks.s": span("walks.sample_nodes")["self_s"],
        "store.peek_calls": span("store.peek_admission")["calls"],
        "store.peek_s": span("store.peek_admission")["total_s"],
        "store.offer_calls": span("store.offer")["calls"],
        "store.offer_self_s": span("store.offer")["self_s"],
        "store.evictions": counts.get("evictions", 0),
        "store.reclaim_s": span("store.reclaim_expired")["total_s"],
        "admission.plan_calls": plan["calls"],
        "admission.plan_s": plan["self_s"],
        "admission.victims_per_plan": per(plan["count"], plan["calls"]),
        "admission.sorted_fallback_calls": span("index.sorted_fallback")["calls"],
        "index.advance_s": span("index.advance")["self_s"],
        "index.mutate_s": span("index.mutate")["self_s"],
        "index.victims_s": span("index.victims")["self_s"] + span("index.sorted_fallback")["self_s"],
        "index.mass_s": span("index.mass")["self_s"],
        "victims.merge_calls": merge["calls"],
        "victims.merge_s": merge["self_s"],
        "victims.returned_per_call": per(merge["count"], merge["calls"]),
        "slab.mutate_s": span("slab.mutate")["self_s"],
        "density.probe_calls": span("density.probe")["calls"],
        "density.probe_s": span("density.probe")["total_s"],
        "engine.events": span("engine.run")["count"],
        "engine.self_s": span("engine.run")["self_s"],
        "recorder.calls": span("recorder.record")["calls"],
        "recorder.s": span("recorder.record")["self_s"],
        "parallel.run_specs_self_s": span("parallel.run_specs")["self_s"],
        "trace.spans": traced["spans"],
        "trace.overhead_ratio": traced["wall_s"] / untraced_wall_s,
        "other.self_s": span("other")["self_s"],
    }
    return {metric.name: values[metric.name] for metric in PER_LAYER}


def validity(name: str, traced: dict[str, Any]) -> list[tuple[str, float, bool]]:
    """``(assertion, measured value, holds)`` for a traced run of ``name``.

    These keep each workload the workload its ``why`` describes: if a
    later change makes ``serve_flash`` placement-bound, its numbers stop
    meaning what the ledger says and the benchmark must say so loudly.
    """
    # Shares of what the tracer's own clock saw: the unscaled wall.
    table, counts, wall = traced["table"], traced["counts"], traced["raw_wall_s"]

    def share(span: str) -> float:
        return table.get(span, _EMPTY)["total_s"] / wall

    other = table["other"]["self_s"] / wall
    checks = [("other.self_s <= 20% of wall (>= 80% attributed)", other, other <= 0.20)]
    if name == "serve_pressure":
        offer = share("cluster.offer")
        checks.append(("cluster.offer (placement+store) >= 55% of wall", offer, offer >= 0.55))
    elif name == "serve_flash":
        absorbed = (counts["coalesced"] + counts["deduped"]) / counts["requests"]
        offer = share("cluster.offer")
        checks.append(("(coalesced + deduped) / requests >= 0.7", absorbed, absorbed >= 0.7))
        checks.append(("cluster.offer (placement+store) <= 25% of wall", offer, offer <= 0.25))
    elif name == "sim_single":
        calls = table.get("placement.choose_unit", _EMPTY)["calls"]
        checks.append(("placement.calls == 0", calls, calls == 0))
    return checks

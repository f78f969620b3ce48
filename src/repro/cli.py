"""Command-line interface: run any experiment from the shell.

Usage::

    repro-sim list
    repro-sim run fig3 [--horizon-days 365] [--seed 42] [--csv out.csv]
    repro-sim run fig6 --metrics-out m.json --trace
    repro-sim run all --jobs 4
    repro-sim sweep fig6 --param capacities_gib=40:80,80:120 --seeds 3 --jobs 4

Each experiment prints the same tables/ASCII charts its driver renders;
``--csv`` additionally dumps the primary series for external plotting.

One run driver: ``run`` and ``sweep`` (which cross-products ``--param
NAME=V1,V2,...`` grids with ``--seeds N`` replicas) both build one
:class:`repro.sim.parallel.RunSpec` per run and hand the list to
``repro.sim.parallel.run_specs`` at every ``--jobs`` — inline at 1, in
worker processes above — where each spec runs on a fresh observability
STATE and comes back as a picklable outcome.  :func:`_run_and_emit`
prints and writes the outcomes in submission order as they arrive, so
stdout, artifact names and deterministic artifact bytes never depend on
``--jobs``.  The sinks (``--csv``, ``--metrics-out``, ``--audit-out``,
``--trace-out``) share one naming rule: a single-spec run writes the
path as given, a multi-spec run one file per spec with the label before
the extension (``m-fig6.json``) plus a ``-merged`` fold for metrics,
audit and trace.

Exit codes: 0 success; 1 a spec failed (``[<label> failed: <Type>:
<msg>]`` on stderr, the rest of the batch keeps going) or a ``--check``
gate tripped; 2 bad input found before anything ran (malformed
``--param``, unreadable rules file, empty run directory).

Observability (see ``docs/observability.md``): ``--metrics-out FILE``
exports the :mod:`repro.obs` metrics registry after each experiment
(JSON, or Prometheus text for ``.prom`` files), ``--trace`` prints span
timings, and ``--log-level``/``--log-file`` emit structured JSONL events
(to stderr when no file is given).  Any of these flags enables the
instrumentation layer; without them it is entirely off.  An instrumented
run prints a metrics summary whose trend column comes from a time-series
collector scraped every ``--scrape-interval-days``.  ``--trace-out FILE``
streams spans to JSONL shards; ``repro-sim flamegraph <run-dir>`` prints
their critical path and writes the merged span stacks in the folded
format external flamegraph tools draw.

Decision provenance and SLO alerts: ``--audit-out FILE`` records every
admit/reject/evict/expire/refresh decision (with the exact thresholds
compared) into a JSONL ledger — ``--audit-sample`` bounds its overhead —
and ``repro-sim explain <ledger-or-dir> <object-id>`` reconstructs one
object's timeline from it.  ``--alerts FILE`` evaluates declarative SLO
rules at every scrape; ``repro-sim alerts <run-dir> [--check]`` re-checks
a finished run's exports and exits 1 on violation (the CI gate).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from typing import Any

from repro.errors import ReproError
from repro.experiments import registry
from repro.report.csvout import write_csv
from repro.report.rundir import default_out, run_files
from repro.sim.parallel import (
    ObsOptions,
    RunOutcome,
    RunSpec,
    expand_sweep,
    run_specs,
)

__all__ = ["build_parser", "main"]


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the ``run`` and ``sweep`` subcommands."""
    parser.add_argument(
        "--horizon-days",
        type=float,
        help="simulated horizon (defaults per experiment; paper scale is 5*365)",
    )
    parser.add_argument("--seed", type=int, default=42, help="workload RNG seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run specs in N worker processes (default: 1, inline)",
    )
    parser.add_argument("--csv", help="also write the primary series to CSV")
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="export the metrics registry per experiment (JSON; .prom for "
        "Prometheus text)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record wall-clock spans and print them after each experiment",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="stream completed spans to a JSONL trace shard per spec (plus a "
        "-merged shard for multi-spec runs); feed the files (or their "
        "directory) to 'repro-sim flamegraph'",
    )
    parser.add_argument(
        "--scrape-interval-days",
        type=float,
        default=1.0,
        metavar="DAYS",
        help="sim-time cadence for time-series scrapes (default: 1 day)",
    )
    parser.add_argument(
        "--audit-out",
        metavar="FILE",
        help="write the decision-provenance ledger as JSONL (per experiment, "
        "plus a -merged ledger for multi-spec runs); keep 'audit' in the "
        "filename so 'repro-sim explain' can discover it",
    )
    parser.add_argument(
        "--audit-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="fraction of object ids audited, deterministic per id so "
        "sampled objects keep complete timelines (default: 1.0)",
    )
    parser.add_argument(
        "--alerts",
        dest="alert_rules",
        metavar="FILE",
        help="evaluate SLO alert rules from FILE at every scrape (JSON "
        "mapping or flat 'name: expr' lines)",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        help="emit structured JSONL events at this level (default: off)",
    )
    parser.add_argument(
        "--log-file",
        metavar="FILE",
        help="append JSONL events to FILE (default: stderr; implies "
        "--log-level info)",
    )


#: What a ``LoadGenSpec`` field cannot say about its ``serve`` / ``loadgen``
#: flag: field -> (metavar, help).  Name, type, default and choices are read
#: off the dataclass (:func:`_add_serve_flags`).
_SERVE_FLAGS: dict[str, tuple[str | None, str]] = {
    "workload": (None, "arrival stream replayed as request traffic; flashcrowd adds a "
                 "hot-key burst aimed at one shard's keyspace (default: university)"),
    "mode": (None, "closed: each client awaits its response before the next request; "
             "open: submit at trace pace and let backpressure shed (default: closed)"),
    "clients": ("N", "concurrent client sessions in closed mode (default: 8)"),
    "nodes": ("N", "Besteffs cluster size; 1 serves a single StorageUnit (default: 4)"),
    "node_capacity_gib": ("GIB", "capacity per node (default: 2.0)"),
    "horizon_days": ("DAYS", "simulated horizon replayed (default: 30)"),
    "seed": (None, "workload/placement seed"),
    "scale": ("F", "university catalogue scale factor (default: 0.01)"),
    "queue_size": ("N", "bounded admission queue; beyond it requests shed (default: 256)"),
    "batch_max": ("N", "requests coalesced per placement round (default: 32)"),
    "rate_per_minute": ("R", "per-principal token-bucket rate in requests per simulated "
                        "minute; 0 disables (default: 0)"),
    "rate_burst": ("B", "token-bucket burst capacity (default: 8)"),
    "deadline_minutes": ("MIN", "relative deadline stamped on every request; queued "
                         "requests past it expire unadmitted (default: none)"),
    "open_burst": ("N", "open-loop requests submitted per scheduler tick (default: 16)"),
    "budget_gib_days": ("G", "fair-share budget per principal per period, GiB-days of "
                        "importance (default: 450)"),
    "period_days": ("DAYS", "fair-share accounting period (default: 30)"),
    "max_requests": ("N", "cap on replayed requests (default: the whole horizon)"),
    "shards": ("N", "gateway shards fronting the cluster; >1 routes requests "
               "deterministically and serves each shard separately (default: 1)"),
    "spill": (None, "route past a saturated home shard to the least-loaded shard "
              "(overflow) or always home (never) (default: overflow)"),
    "high_water": ("N", "offered-load mark (requests in window) at which the home "
                   "shard spills (default: 64)"),
    "window_minutes": ("MIN", "sliding offered-load window, simulated minutes (default: 1440)"),
    "coalesce": (None, "disable same-(token, object) write coalescing per admission round"),
    "hot_objects": ("N", "flashcrowd: distinct hot object ids in the burst (default: 8)"),
    "burst_factor": ("F", "flashcrowd: burst volume as a multiple of the base stream "
                     "(default: 2.0)"),
    "target_shard": ("K", "flashcrowd: shard whose keyspace the burst aims at (default: 0)"),
}


def _add_serve_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of ``serve`` / ``loadgen``: one per spec field, then run control.

    A field the parser already holds a default for (the ``serve`` preset)
    gets no flag; a boolean field that defaults to True gets ``--no-<field>``.
    """
    from repro.serve.loadgen import MODES, WORKLOADS, LoadGenSpec
    from repro.serve.router import SPILL_POLICIES

    choices = {
        "mode": MODES,
        "workload": WORKLOADS,
        "spill": SPILL_POLICIES,
    }
    hints = typing.get_type_hints(LoadGenSpec)
    for field in dataclasses.fields(LoadGenSpec):
        metavar, text = _SERVE_FLAGS[field.name]
        flag = field.name.replace("_", "-")
        if parser.get_default(field.name) is not None:
            continue
        if field.default is True:
            parser.add_argument(f"--no-{flag}", action="store_true", help=text)
            continue
        parser.add_argument(
            f"--{flag}",
            type=(typing.get_args(hints[field.name]) or (hints[field.name],))[0],
            default=field.default,
            choices=choices.get(field.name),
            metavar=metavar,
            help=text,
        )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard workers executed concurrently when --shards > 1; "
        "never affects outcomes (default: 1)",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE", help="write the run's obs metrics as JSON (or .prom text)"
    )
    parser.add_argument(
        "--ledger-out", metavar="FILE", help="write the canonical request/response JSONL ledger"
    )
    parser.add_argument(
        "--alerts",
        dest="alert_rules",
        metavar="FILE",
        help="evaluate SLO alert rules against the run's metrics",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any --alerts rule fails (CI gate)",
    )


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``repro-sim`` parser; each subparser carries its ``handler``.

    ``command`` is the subcommand about to be parsed (None: all of them):
    flags derived from another package are built only for it, so ``run``
    never imports the serving stack to describe ``serve``.
    """
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description=(
            "Reproduce the tables and figures of 'Automated Storage Reclamation "
            "Using Temporal Importance Annotations' (ICDCS 2007)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, handler, help, flags=None, **preset):
        sub_parser = sub.add_parser(name, help=help)
        sub_parser.set_defaults(handler=handler, **preset)
        if flags is not None and command in (None, name):
            flags(sub_parser)
        return sub_parser

    names = list(registry.names())
    subcommand("list", _list_cmd, "list available experiments")
    run_parser = subcommand("run", _run_cmd, "run one experiment (or 'all')")
    run_parser.add_argument("experiment", choices=[*names, "all"])
    _add_run_flags(run_parser)
    sweep_parser = subcommand(
        "sweep", _sweep_cmd, "cross-product a parameter grid x seed replicas"
    )
    sweep_parser.add_argument("experiment", choices=names)
    sweep_parser.add_argument(
        "--param",
        action="append",
        metavar="NAME=V1,V2,...",
        help="sweep one driver parameter over comma-separated values "
        "(repeatable; A:B makes a tuple value, e.g. capacities_gib=80:120)",
    )
    sweep_parser.add_argument(
        "--seeds",
        type=int,
        default=1,
        metavar="N",
        help="seed replicas per grid point (replica 0 uses --seed as-is)",
    )
    _add_run_flags(sweep_parser)
    flame_parser = subcommand(
        "flamegraph",
        _flamegraph_cmd,
        "print the critical path of a run's --trace-out shards and write "
        "their collapsed stacks",
    )
    flame_parser.add_argument(
        "run_dir",
        help="a --trace-out JSONL shard, or a run directory holding them",
    )
    flame_parser.add_argument(
        "--out",
        metavar="FILE",
        help="output path for the folded stacks (default: <run-dir>/flamegraph.folded)",
    )
    flame_parser.add_argument(
        "--top",
        type=_positive_int,
        default=10,
        metavar="K",
        help="spans listed in the critical-path summary (default: 10)",
    )
    explain_parser = subcommand(
        "explain",
        _explain_cmd,
        "reconstruct one object's decision timeline from an audit ledger",
    )
    explain_parser.add_argument(
        "run_dir",
        help="an --audit-out JSONL ledger, or a run directory holding them",
    )
    explain_parser.add_argument(
        "object_id",
        nargs="?",
        help="object to explain (omit to list the most eventful objects)",
    )
    explain_parser.add_argument(
        "--limit",
        type=int,
        default=40,
        metavar="N",
        help="objects shown when listing (default: 40)",
    )
    # ``serve`` is ``loadgen`` with two spec fields preset.
    subcommand(
        "serve",
        _serve_cmd,
        "serve one workload through the async gateway front-end "
        "(open loop, single producer)",
        _add_serve_flags,
        mode="open",
        clients=1,
    )
    subcommand(
        "loadgen",
        _serve_cmd,
        "drive the gateway service with concurrent client sessions "
        "(closed or open loop)",
        _add_serve_flags,
    )
    alerts_parser = subcommand(
        "alerts", _alerts_cmd, "evaluate SLO alert rules against a run's metrics exports"
    )
    alerts_parser.add_argument(
        "run_dir",
        help="directory holding --metrics-out JSON exports (or one JSON file)",
    )
    alerts_parser.add_argument(
        "--rules",
        metavar="FILE",
        help="rules file (JSON mapping or flat 'name: expr' lines; "
        "default: built-in sanity invariants)",
    )
    alerts_parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any rule fails (CI gate)",
    )
    return parser


def _obs_options(args: argparse.Namespace) -> ObsOptions:
    """Translate CLI flags into per-spec observability options.

    Alert rules are loaded here, in the parent process, into picklable
    ``(name, expression)`` pairs so worker processes never touch the
    rules file (and a bad file fails fast, before any work is done).
    """
    requested = (
        args.metrics_out, args.trace, args.trace_out, args.log_level, args.log_file,
        args.audit_out, args.alert_rules,
    )
    if not any(requested):
        return ObsOptions()
    alert_pairs: tuple[tuple[str, str], ...] = ()
    if args.alert_rules:
        from repro.obs.alerts import load_rules

        alert_pairs = tuple((r.name, r.expr) for r in load_rules(args.alert_rules))
    return ObsOptions(
        metrics=True,
        trace=bool(args.trace),
        trace_export=bool(args.trace_out),
        scrape_interval_days=args.scrape_interval_days,
        log_level=args.log_level,
        log_file=args.log_file,
        audit=bool(args.audit_out),
        audit_sample=args.audit_sample,
        alert_rules=alert_pairs,
    )


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _coerce_param_value(text: str) -> Any:
    """``--param`` value literal: bool/int/float/str, ``A:B`` -> tuple."""
    if ":" in text:
        return tuple(_coerce_param_value(part) for part in text.split(":"))
    lowered = text.strip().lower()
    if lowered in {"true", "false"}:
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_param_grid(entries: list[str] | None) -> dict[str, list[Any]]:
    grid: dict[str, list[Any]] = {}
    for entry in entries or ():
        name, sep, values = entry.partition("=")
        name = name.strip()
        if not sep or not name or not values:
            raise ReproError(f"--param expects NAME=V1[,V2,...], got {entry!r}")
        if name in grid:
            raise ReproError(f"duplicate --param {name!r}")
        grid[name] = [_coerce_param_value(v) for v in values.split(",")]
    return grid


# -- artifact sinks ----------------------------------------------------------
# A writer takes (path, data) and returns the detail that follows the path in
# the "[<noun> written to <path><detail>]" line.


def _write_csv(path: str, outcome: RunOutcome) -> str:
    """``--csv``: the only place an experiment's result becomes rows."""
    write_csv(path, *registry.csv_table(outcome.spec.experiment, outcome.result))
    return ""


def _write_metrics(path: str, data: dict[str, Any]) -> str:
    """``--metrics-out``: JSON, or Prometheus text for ``.prom`` paths."""
    if path.endswith(".prom"):
        from repro.obs import MetricsRegistry

        text = MetricsRegistry.from_dict(data["metrics"]).to_prometheus_text()
    else:
        text = json.dumps(data, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return ""


def _write_audit(path: str, ledger: Any) -> str:
    written = ledger.write_jsonl(path)
    note = f" ({ledger.dropped} dropped by ring buffer)" if ledger.dropped else ""
    return f": {written} records{note}"


def _write_trace(path: str, archive: Any) -> str:
    written = archive.write_jsonl(path)
    note = (
        f" ({archive.dropped_spans} spans dropped by shard bounds)"
        if archive.dropped_spans
        else ""
    )
    return f": {written} spans{note}"


def _write_ledger(path: str, ledger: Any) -> str:
    ledger.write_jsonl(path)
    return f": {len(ledger)} entries"


#: kind -> (argparse dest, default extension, noun, writer).
_SINKS = {
    "csv": ("csv", ".csv", "csv", _write_csv),
    "metrics": ("metrics_out", ".json", "metrics", _write_metrics),
    "audit": ("audit_out", ".jsonl", "audit ledger", _write_audit),
    "trace": ("trace_out", ".jsonl", "trace shard", _write_trace),
    "ledger": ("ledger_out", ".jsonl", "serve ledger", _write_ledger),
}


def _write_sink(
    args: argparse.Namespace, kind: str, data: Any, label: str | None = None
) -> None:
    """Write ``data`` to one artifact sink, if its flag was given.

    The naming rule, stated once: ``label=None`` (the only spec of a run)
    writes the flag's path as given; otherwise the label goes before the
    extension — one file per spec, and ``merged`` for the cross-spec fold.
    """
    dest, default_ext, noun, writer = _SINKS[kind]
    path = getattr(args, dest, None)
    if path is None or data is None:
        return
    if label is not None:
        root, ext = os.path.splitext(path)
        path = f"{root}-{label}{ext or default_ext}"
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    print(f"[{noun} written to {path}{writer(path, data)}]")


def _metrics_export(payload: dict[str, Any], *, trace: bool) -> dict[str, Any]:
    """The part of a telemetry payload that ``--metrics-out`` persists.

    Span aggregates (and the rendered tree) are verbose and gated on
    ``--trace``; the loss counter is one integer and always travels —
    silent span loss is exactly what it exists to surface.  The audit
    ledger and trace shards go to their own JSONL files (``--audit-out``
    / ``--trace-out``); alerts stay — they are small and the ``alerts``
    subcommand reads them from here.
    """
    drop = {"audit", "trace"}
    if not trace:
        drop |= {"spans", "span_tree"}
    return {key: value for key, value in payload.items() if key not in drop}


def _run_and_emit(specs: list[RunSpec], args: argparse.Namespace, *, sweep: bool) -> int:
    """The one run driver: execute specs and emit their outcomes.

    ``run`` and ``sweep`` at every ``--jobs`` end here.  Outcomes are
    printed and written in submission order *as they arrive* (a cursor
    over ``run_specs(on_outcome=...)``): a long serial batch streams
    experiment by experiment and nothing emitted depends on completion
    order.  Telemetry comes back as per-spec payloads, written per spec
    and folded into one cross-spec summary and the ``-merged`` files.
    """
    if specs and specs[0].obs.trace_export:
        # One trace id for the whole invocation (whose specs share one
        # ObsOptions), a pure function of the spec slugs: --jobs 1 and
        # --jobs 4 runs tag their shards identically.
        from repro.obs.traceexport import trace_id_for

        tagged = dataclasses.replace(
            specs[0].obs, trace_id=trace_id_for([spec.slug() for spec in specs])
        )
        specs = [spec.with_overrides(obs=tagged) for spec in specs]
    multiple = len(specs) > 1
    failures: list[tuple[str, Any]] = []  # (label, RunError)
    folds: dict[str, Any] = {}  # kind -> cross-spec merge, in submission order

    def emit(outcome: RunOutcome) -> None:
        label = outcome.spec.slug() if sweep else outcome.spec.experiment
        suffix = label if multiple else None
        print(f"== {label} ==")
        if not outcome.ok:
            failures.append((label, outcome.error))
            print(f"[failed: {outcome.error.render()}]")
            print()
            return
        print(outcome.rendered)
        print()
        _write_sink(args, "csv", outcome, suffix)
        telemetry = outcome.telemetry
        if telemetry is None:
            return
        from repro.obs import MetricsRegistry, TimeSeriesCollector, render_trace
        from repro.report.metrics import metrics_summary

        parts = {"metrics": MetricsRegistry.from_dict(telemetry["metrics"])}
        if "timeseries" in telemetry:
            parts["timeseries"] = TimeSeriesCollector.from_dict(telemetry["timeseries"])
        for kind in ("audit", "trace"):  # shipped as the ledger / archive itself
            if kind in telemetry:
                parts[kind] = telemetry[kind]
        print(
            metrics_summary(
                parts["metrics"],
                timeseries=parts.get("timeseries"),
                alerts=telemetry.get("alerts"),
            )
        )
        print()
        if args.trace:
            print(render_trace(telemetry.get("spans", {}), telemetry.get("span_tree", "")))
            print()
        _write_sink(args, "metrics", _metrics_export(telemetry, trace=args.trace), suffix)
        _write_sink(args, "audit", parts.get("audit"), suffix)
        _write_sink(args, "trace", parts.get("trace"), suffix)
        for kind, part in parts.items():
            if kind in folds:
                folds[kind].merge(part)
            else:
                folds[kind] = part

    early: list[RunOutcome] = []  # arrived ahead of an unfinished earlier spec
    cursor = 0

    def on_outcome(outcome: RunOutcome) -> None:
        nonlocal cursor
        early.append(outcome)
        while cursor < len(specs):
            due = next((i for i, o in enumerate(early) if o.spec == specs[cursor]), None)
            if due is None:
                return
            cursor += 1
            emit(early.pop(due))

    run_specs(specs, jobs=args.jobs, on_outcome=on_outcome)
    registry = folds.get("metrics")
    if multiple and registry is not None and len(registry):
        from repro.report.metrics import metrics_summary

        alerts = None
        if specs[0].obs.alert_rules:
            # Re-evaluate the rules against the cross-spec registry: a rule
            # can pass on every shard yet fail in aggregate (or vice versa).
            from repro.obs.alerts import AlertEngine

            alerts = AlertEngine.from_pairs(specs[0].obs.alert_rules)
            alerts.evaluate(registry)
        timeseries = folds.get("timeseries")
        print("== merged (all specs) ==")
        print(metrics_summary(registry, timeseries=timeseries, alerts=alerts))
        print()
        if args.metrics_out is not None:
            merged: dict[str, Any] = {"experiment": "merged", "metrics": registry.to_dict()}
            if timeseries is not None:
                merged["timeseries"] = timeseries.to_dict()
            if alerts is not None:
                merged["alerts"] = alerts.to_dict()
            _write_sink(args, "metrics", merged, "merged")
        _write_sink(args, "audit", folds.get("audit"), "merged")
    if multiple and "trace" in folds:
        from repro.report.flamegraph import critical_path, render_critical_path

        # TraceArchive.merge re-sorts by a total key, so the fold is
        # byte-stable regardless of --jobs (wall-clock measurement fields
        # aside; see TraceArchive.canonical_bytes).
        _write_sink(args, "trace", folds["trace"], "merged")
        print(render_critical_path(critical_path(folds["trace"])))
        print()
    for label, error in failures:
        print(f"[{label} failed: {error.render()}]", file=sys.stderr)
        if error.traceback:
            print(error.traceback, file=sys.stderr, end="")
    return 1 if failures else 0


# -- subcommands ---------------------------------------------------------------


def _list_cmd(args: argparse.Namespace) -> int:
    for name in registry.names():
        print(name)
    return 0


def _run_cmd(args: argparse.Namespace) -> int:
    """The ``run`` subcommand: one registry entry, or all of them."""
    names = registry.names() if args.experiment == "all" else [args.experiment]
    obs = _obs_options(args)
    specs = [
        RunSpec(name, seed=args.seed, horizon_days=args.horizon_days, obs=obs)
        for name in names
    ]
    return _run_and_emit(specs, args, sweep=False)


def _sweep_cmd(args: argparse.Namespace) -> int:
    """The ``sweep`` subcommand: a parameter grid x seed replicas."""
    specs = expand_sweep(
        args.experiment,
        grid=_parse_param_grid(args.param),
        seeds=args.seeds,
        base_seed=args.seed,
        horizon_days=args.horizon_days,
        obs=_obs_options(args),
    )
    return _run_and_emit(specs, args, sweep=True)


def _read_payload(path: str) -> dict[str, Any] | None:
    """One ``--metrics-out`` JSON export, or None when ``path`` is not one."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"[skipping {path}: {exc}]", file=sys.stderr)
        return None
    if not isinstance(data, dict) or "metrics" not in data:
        return None
    return data


def _flamegraph_cmd(args: argparse.Namespace) -> int:
    """The ``flamegraph`` subcommand: trace shards -> critical path + folded stacks."""
    from repro.obs.traceexport import is_trace_file
    from repro.report.flamegraph import (
        collapsed_stacks,
        critical_path,
        load_trace_archives,
        render_critical_path,
    )

    shards = run_files(args.run_dir, ".jsonl", is_trace_file, what="trace JSONL shards")
    archive = load_trace_archives(shards)
    out = args.out or default_out(args.run_dir, "flamegraph.folded")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(collapsed_stacks(archive))
    print(render_critical_path(critical_path(archive, top_k=args.top)))
    print()
    print(f"[collapsed stacks written to {out}]")
    return 0


def _explain_cmd(args: argparse.Namespace) -> int:
    """The ``explain`` subcommand: one object's decision timeline."""
    from repro.report.explain import explain_object, ledger_for, list_objects, load_run_ledgers

    ledgers = load_run_ledgers(args.run_dir)
    for file, ledger in ledgers.items():
        if ledger.dropped:
            print(
                f"warning: the audit ledger {file} dropped {ledger.dropped} of "
                f"{ledger.recorded_count} records; timelines may be incomplete",
                file=sys.stderr,
            )
    if args.object_id is None:
        print(list_objects(ledgers, limit=args.limit))
    else:
        print(explain_object(ledger_for(ledgers, args.object_id), args.object_id))
    return 0


def _alerts_cmd(args: argparse.Namespace) -> int:
    """The ``alerts`` subcommand: re-check SLO rules against a run's exports.

    Per-spec payloads are merged (``-merged`` exports are skipped to avoid
    double counting) and every rule is evaluated against the merged
    registry; with ``--check`` a failing rule exits 1 — the CI gate.
    """
    from repro.obs import MetricsRegistry
    from repro.obs.alerts import DEFAULT_RULES, AlertEngine, load_rules
    from repro.report.metrics import alerts_verdict_line
    from repro.report.table import TextTable

    found = run_files(
        args.run_dir, ".json", _read_payload, what="metrics JSON payloads", merged="skip"
    )
    payloads = list(found.values())
    if args.rules:
        engine = AlertEngine(rules=load_rules(args.rules))
    else:
        engine = AlertEngine.from_pairs(DEFAULT_RULES)
    registry = MetricsRegistry()
    for payload in payloads:
        registry.merge(MetricsRegistry.from_dict(payload["metrics"]))
    results = engine.evaluate(registry)
    table = TextTable(
        ["rule", "expression", "value", "verdict"],
        title=f"SLO alerts ({len(payloads)} payload{'s' if len(payloads) != 1 else ''})",
    )
    for result in results:
        value = "-" if result.value is None else f"{result.value:.6g}"
        table.add_row([result.rule.name, result.rule.expr, value, result.verdict])
    print(table.render())
    print(alerts_verdict_line(engine))
    return 1 if args.check and not engine.passed else 0


def _serve_cmd(args: argparse.Namespace) -> int:
    """The ``serve``/``loadgen`` subcommands: one serving experiment.

    ``serve`` is the open-loop single-producer preset of ``loadgen``;
    both build a deployment from the spec, replay the workload through
    the async service, and print the report.  Metrics export and in-run
    alert evaluation mirror the ``run`` subcommand.
    """
    from repro.obs.alerts import AlertEngine, load_rules
    from repro.serve.loadgen import LoadGenSpec, render, run_loadgen

    spec = LoadGenSpec(
        **{
            f.name: not getattr(args, f"no_{f.name}")  # the flag is --no-<field>
            if f.default is True
            else getattr(args, f.name)
            for f in dataclasses.fields(LoadGenSpec)
        }
    )
    # Rules load before anything runs, so a bad rules file is exit 2.
    rules = load_rules(args.alert_rules) if args.alert_rules else ()
    obs_requested = bool(args.metrics_out or args.alert_rules)
    if obs_requested:
        from repro import obs

        obs.reset()
        obs.enable()
    try:
        report = run_loadgen(spec, jobs=args.jobs)
        print(render(report))
        _write_sink(args, "ledger", report.ledger)
        failed = False
        if obs_requested:
            payload = _metrics_export(obs.export_payload(args.command), trace=False)
            _write_sink(args, "metrics", payload)
            if rules:
                from repro.report.metrics import alerts_verdict_line

                engine = AlertEngine(rules=rules)
                engine.evaluate(obs.STATE.registry)
                print(alerts_verdict_line(engine))
                failed = not engine.passed
        return 1 if failed and args.check else 0
    finally:
        if obs_requested:
            obs.disable()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code (0 / 1 / 2, see above)."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ReproError) as exc:
        # Bad input found before (or instead of) running anything; a spec
        # that raises is a failed outcome (exit 1), never an exception here.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

"""repro.obs — zero-dependency telemetry for the simulator and Besteffs.

Three pillars, one switch:

* :mod:`repro.obs.metrics` — Counter / Gauge / Histogram with label sets
  on a :class:`MetricsRegistry`, exported as a dict or Prometheus text;
* :mod:`repro.obs.tracing` — context-manager spans recording wall-clock
  (``perf_counter``) durations and simulation time, kept as bounded span
  records (the tree and the trace shards are drawn from them) plus exact
  per-label aggregates;
* :mod:`repro.obs.log` — leveled JSONL event logging with component tags
  and sim-time stamps, silent by default.

Everything hangs off the process-global :data:`STATE`.  Instrumented hot
paths guard on ``STATE.enabled`` — a single attribute load — so a run
with observability disabled (the default) pays one boolean check per
event and allocates nothing.  Enable it either programmatically::

    from repro import obs

    obs.enable()
    ...  # run experiments
    print(obs.STATE.registry.to_prometheus_text())
    print(obs.STATE.tracer.render())

or from the CLI (``repro-sim run fig6 --metrics-out m.json --trace``).

Enabling mid-run is supported for everything except an in-flight
:meth:`~repro.sim.engine.SimulationEngine.run` loop, which samples the
flag once on entry.
"""

from __future__ import annotations

from typing import IO, TYPE_CHECKING

from repro.obs.log import LEVELS, JsonlLogger
from repro.obs.metrics import (
    COUNT_BUCKETS,
    DURATION_BUCKETS,
    IMPORTANCE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.timeseries import SeriesBuffer, TimeSeriesCollector, series_label
from repro.obs.tracing import SpanRecord, SpanStats, Tracer, render_aggregates, render_trace

if TYPE_CHECKING:  # pragma: no cover - typing only; audit/alerts stay lazy
    from repro.obs.alerts import AlertEngine
    from repro.obs.audit import AuditLedger

__all__ = [
    "COUNT_BUCKETS",
    "DURATION_BUCKETS",
    "IMPORTANCE_BUCKETS",
    "LEVELS",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlLogger",
    "MetricsRegistry",
    "ObsState",
    "STATE",
    "SeriesBuffer",
    "SpanRecord",
    "SpanStats",
    "TimeSeriesCollector",
    "Tracer",
    "configure_logging",
    "disable",
    "enable",
    "export_payload",
    "is_enabled",
    "observe_phase",
    "render_aggregates",
    "render_trace",
    "reset",
    "series_label",
]


class ObsState:
    """The process-global telemetry switchboard."""

    __slots__ = (
        "enabled", "registry", "tracer", "logger", "timeseries", "audit", "alerts",
    )

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.logger = JsonlLogger()
        #: Optional time-series collector; the engine scrapes it when set.
        self.timeseries: TimeSeriesCollector | None = None
        #: Optional decision-provenance ledger (:mod:`repro.obs.audit`).
        #: Left None unless auditing is requested, so the audit module is
        #: never even imported on un-audited runs.
        self.audit: AuditLedger | None = None
        #: Optional SLO rule engine (:mod:`repro.obs.alerts`), evaluated
        #: at scrape time when set.  Same laziness contract as ``audit``.
        self.alerts: AlertEngine | None = None


#: Global state; hot paths read ``STATE.enabled`` directly.
STATE = ObsState()


def enable(
    *,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    logger: JsonlLogger | None = None,
    timeseries: TimeSeriesCollector | None = None,
    audit: "AuditLedger | None" = None,
    alerts: "AlertEngine | None" = None,
) -> ObsState:
    """Turn instrumentation on, optionally swapping in custom sinks.

    Returns :data:`STATE` for chaining (``obs.enable().logger.set_level(...)``).
    """
    if registry is not None:
        STATE.registry = registry
    if tracer is not None:
        STATE.tracer = tracer
    if logger is not None:
        STATE.logger = logger
    if timeseries is not None:
        STATE.timeseries = timeseries
    if audit is not None:
        STATE.audit = audit
    if alerts is not None:
        STATE.alerts = alerts
    STATE.enabled = True
    return STATE


def disable() -> None:
    """Turn instrumentation off; collected data stays readable."""
    STATE.enabled = False


def is_enabled() -> bool:
    """Whether instrumentation is currently active."""
    return STATE.enabled


def reset() -> None:
    """Disable and discard all collected telemetry (fresh sinks)."""
    STATE.enabled = False
    STATE.registry = MetricsRegistry()
    STATE.tracer = Tracer()
    STATE.logger.close()
    STATE.logger = JsonlLogger()
    STATE.timeseries = None
    STATE.audit = None
    STATE.alerts = None


def configure_logging(level: str = "info", sink: str | IO[str] | list | None = None) -> JsonlLogger:
    """Convenience: set the global logger's level and sink in one call."""
    STATE.logger.set_level(level)
    if sink is not None:
        STATE.logger.set_sink(sink)
    return STATE.logger


def observe_phase(phase: str, seconds: float) -> None:
    """Record one timed occurrence of ``phase`` in ``profile_phase_seconds``.

    The hot paths that time a phase (admission planning, placement and
    gossip rounds) call this behind their ``STATE.enabled`` guard.
    """
    STATE.registry.histogram(
        "profile_phase_seconds", "Wall-clock seconds per profiled phase.", ("phase",)
    ).observe(seconds, phase=phase)


def export_payload(experiment: str, *, trace: bool = False) -> dict:
    """Snapshot :data:`STATE` into one telemetry payload.

    The schema matches ``--metrics-out`` files:
    ``{experiment, metrics, spans, span_tree, spans_dropped, timeseries?,
    trace?, audit?, alerts?}`` — ``span_tree`` is the rendered (bounded)
    tree, so ``--trace`` prints the same text from a worker's payload as
    from a live tracer.  ``trace`` (the tracer's records as a
    :class:`~repro.obs.traceexport.TraceArchive`) and ``audit`` (the
    :class:`~repro.obs.audit.AuditLedger`) ship as the objects
    themselves and go to their own JSONL sinks; everything else is plain
    JSON.  Parallel workers ship this dict back to the parent, which
    rebuilds the registry and collector via
    :meth:`MetricsRegistry.from_dict` /
    :meth:`TimeSeriesCollector.from_dict` and merges the parts.
    """
    tracer = STATE.tracer
    payload: dict = {
        "experiment": experiment,
        "metrics": STATE.registry.to_dict(),
        "spans": tracer.aggregates(),
        "span_tree": tracer.render_tree(),
        "spans_dropped": tracer.dropped_spans,
    }
    if STATE.timeseries is not None:
        payload["timeseries"] = STATE.timeseries.to_dict()
    if trace:
        payload["trace"] = tracer.archive()
    if STATE.audit is not None:
        payload["audit"] = STATE.audit
    if STATE.alerts is not None:
        payload["alerts"] = STATE.alerts.to_dict()
    return payload

"""Declarative SLO rules evaluated against the metrics registry.

A rule is one comparison, ``<signal> <op> <number>``::

    healthy_rejects:  reject_rate < 0.3
    density_floor:    importance_density_p5 > 0.05
    gossip_fast:      gossip_convergence_rounds <= 12
    queue_sane:       engine_queue_depth:max < 100000

Rules live in a flat ``name: expression`` mapping — a plain dict in
code, JSON on disk, or a minimal YAML subset (one ``name: expr`` pair
per line, ``#`` comments) parsed here by hand so no YAML dependency is
needed.  The :class:`AlertEngine` evaluates every rule against a
:class:`~repro.obs.metrics.MetricsRegistry` — at scrape time during a
run (so the *first violation time* is recorded in simulation minutes)
and once more at the end — and its results travel in telemetry payloads
to ``metrics_summary``'s verdict line, the ``"alerts"`` key of
``--metrics-out`` exports and the ``repro-sim alerts --check`` CI gate.

Signals
-------
Derived signals (computed from the standard store metrics):

``reject_rate`` / ``admit_rate``
    Rejected (admitted) fraction of all offers, from
    ``store_admissions_total``.
``evictions_total``
    Sum of ``store_evictions_total`` over all units and reasons.
``occupancy_min`` / ``occupancy_mean`` / ``occupancy_max``
    Aggregates of the per-unit ``store_occupancy_ratio`` gauge.
``importance_density_min`` / ``_mean`` / ``_max`` / ``_p<N>``
    Aggregates (or the N-th percentile) of the per-unit
    ``store_importance_density`` gauge.
``gossip_convergence_rounds``
    Rounds the last gossip run needed to converge (gauge set by
    :class:`~repro.besteffs.gossip.GossipAverager`).

Any other signal is a generic metric selector
``name[{label=value,...}][:agg]`` where ``agg`` is one of ``sum``,
``mean``, ``min``, ``max``, ``count``, ``last`` or ``p<N>`` (histogram
percentile).  Defaults: ``sum`` for counters, ``mean`` for gauges and
histograms.  A signal whose metric does not exist yet evaluates to
*no data*, which neither passes nor fails (so mid-run scrapes do not
trip rules on metrics that appear later).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping, Sequence

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_cumulative,
)

__all__ = [
    "AlertRule",
    "AlertResult",
    "AlertEngine",
    "DEFAULT_RULES",
    "parse_rule",
    "load_rules",
]

#: Invariant rules any healthy run satisfies; the fallback rule set for
#: ``repro-sim alerts`` when no rules file is given.
DEFAULT_RULES: tuple[tuple[str, str], ...] = (
    ("occupancy_bounded", "occupancy_max <= 1.0"),
    ("density_non_negative", "importance_density_min >= 0.0"),
    ("reject_rate_bounded", "reject_rate <= 1.0"),
)

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_EXPR_RE = re.compile(
    r"^\s*(?P<signal>.+?)\s*(?P<op><=|>=|==|!=|<|>)\s*(?P<bound>[-+0-9.eE]+)\s*$"
)
_SELECTOR_RE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"(?::(?P<agg>[a-z0-9.]+))?$"
)
_PERCENTILE_RE = re.compile(r"^p(?P<pct>\d+(?:\.\d+)?)$")


@dataclass(frozen=True)
class AlertRule:
    """One parsed SLO rule: ``signal op bound``."""

    name: str
    expr: str
    signal: str
    op: str
    bound: float

    def check(self, value: float) -> bool:
        return _OPS[self.op](value, self.bound)


@dataclass(frozen=True)
class AlertResult:
    """Outcome of evaluating one rule once.

    ``passed`` is ``None`` when the signal had no data (its metric was
    never registered) — neither a pass nor a failure.
    """

    rule: AlertRule
    value: float | None
    passed: bool | None

    @property
    def verdict(self) -> str:
        if self.passed is None:
            return "n/a"
        return "pass" if self.passed else "FAIL"


def parse_rule(name: str, expr: str) -> AlertRule:
    """Parse ``"reject_rate < 0.3"`` into an :class:`AlertRule`."""
    match = _EXPR_RE.match(expr)
    if match is None:
        raise ObservabilityError(
            f"alert rule {name!r}: cannot parse {expr!r} "
            "(expected '<signal> <op> <number>')"
        )
    signal = match.group("signal")
    selector = _SELECTOR_RE.match(signal)
    if selector is None:
        raise ObservabilityError(f"alert rule {name!r}: invalid signal {signal!r}")
    # A percentile is a selector's ``:pN`` or the derived ``importance_density_pN``.
    agg = selector.group("agg") or signal.removeprefix("importance_density_")
    pct = _PERCENTILE_RE.match(agg)
    if pct is not None and not 0.0 <= float(pct.group("pct")) <= 100.0:
        raise ObservabilityError(
            f"alert rule {name!r}: percentile {agg!r} is outside p0..p100"
        )
    try:
        bound = float(match.group("bound"))
    except ValueError as exc:
        raise ObservabilityError(
            f"alert rule {name!r}: bound {match.group('bound')!r} is not a number"
        ) from exc
    return AlertRule(
        name=name, expr=expr.strip(), signal=signal, op=match.group("op"), bound=bound
    )


def load_rules(source: str | IO[str]) -> tuple[AlertRule, ...]:
    """Load rules from a file path or handle (JSON or flat YAML subset).

    JSON: either ``{"rules": {name: expr}}`` or a top-level
    ``{name: expr}`` mapping.  Anything else is parsed line-wise as
    ``name: expr`` pairs, with ``#`` comments and blank lines ignored
    and optional quotes around the expression — i.e. a flat YAML
    mapping, without needing a YAML parser.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = source.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(text)
        mapping = payload.get("rules", payload) if isinstance(payload, dict) else payload
        if not isinstance(mapping, dict):
            raise ObservabilityError("JSON rules must be a {name: expr} mapping")
        return tuple(parse_rule(str(k), str(v)) for k, v in mapping.items())
    rules: list[AlertRule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ObservabilityError(
                f"rules line {lineno}: expected 'name: expression', got {raw!r}"
            )
        name, expr = line.split(":", 1)
        expr = expr.strip().strip("'\"")
        rules.append(parse_rule(name.strip(), expr))
    return tuple(rules)


# -- signal resolution -----------------------------------------------------


def _parse_labels(spec: str | None) -> dict[str, str]:
    labels: dict[str, str] = {}
    if not spec:
        return labels
    for pair in spec.split(","):
        pair = pair.strip()
        if not pair:
            continue
        if "=" not in pair:
            raise ObservabilityError(f"invalid label filter {pair!r}")
        key, value = pair.split("=", 1)
        labels[key.strip()] = value.strip().strip("'\"")
    return labels


def _matching_keys(
    labelnames: Sequence[str], keys: Iterable[tuple[str, ...]], filters: Mapping[str, str]
) -> list[tuple[str, ...]]:
    positions = {}
    for label, wanted in filters.items():
        if label not in labelnames:
            raise ObservabilityError(
                f"label {label!r} not on metric (labels: {tuple(labelnames)})"
            )
        positions[labelnames.index(label)] = wanted
    return [k for k in keys if all(k[i] == v for i, v in positions.items())]


def _aggregate_scalar(values: Sequence[float], agg: str) -> float | None:
    if not values:
        return None
    if agg == "sum":
        return sum(values)
    if agg == "mean":
        return sum(values) / len(values)
    if agg == "min":
        return min(values)
    if agg == "max":
        return max(values)
    if agg == "count":
        return float(len(values))
    if agg == "last":
        return values[-1]
    pct = _PERCENTILE_RE.match(agg)
    if pct is not None:
        # Imported here: the analysis package pulls in scipy, and an
        # alerts-only run must not pay for it.
        from repro.analysis.summarize import percentile

        return percentile(values, float(pct.group("pct")))
    raise ObservabilityError(f"unknown aggregation {agg!r}")


def _resolve_selector(registry: MetricsRegistry, signal: str) -> float | None:
    match = _SELECTOR_RE.match(signal)
    if match is None:
        raise ObservabilityError(f"cannot parse signal {signal!r}")
    metric = registry.get(match.group("name"))
    if metric is None:
        return None
    filters = _parse_labels(match.group("labels"))
    agg = match.group("agg")
    if isinstance(metric, (Counter, Gauge)):
        series = metric.series()
        keys = _matching_keys(metric.labelnames, series, filters)
        values = [series[k] for k in keys]
        return _aggregate_scalar(values, agg or ("sum" if isinstance(metric, Counter) else "mean"))
    assert isinstance(metric, Histogram)
    keys = _matching_keys(metric.labelnames, metric._series, filters)
    if not keys:
        return None
    count = sum(metric._series[k].count for k in keys)
    if count == 0:
        return None
    total = sum(metric._series[k].sum for k in keys)
    lo = min(metric._series[k].min for k in keys)
    hi = max(metric._series[k].max for k in keys)
    agg = agg or "mean"
    if agg == "count":
        return float(count)
    if agg == "sum":
        return total
    if agg == "mean":
        return total / count
    if agg == "min":
        return lo
    if agg == "max":
        return hi
    pct = _PERCENTILE_RE.match(agg)
    if pct is not None:
        merged = [0] * len(metric.buckets)
        for k in keys:
            for i, raw in enumerate(metric._series[k].bucket_counts):
                merged[i] += raw
        cumulative: list[int] = []
        running = 0
        for raw in merged:
            running += raw
            cumulative.append(running)
        return quantile_from_cumulative(
            metric.buckets, cumulative, count, lo, hi, float(pct.group("pct")) / 100.0
        )
    raise ObservabilityError(f"unknown aggregation {agg!r} for histogram {metric.name!r}")


def _gauge_values(registry: MetricsRegistry, name: str) -> list[float] | None:
    metric = registry.get(name)
    if not isinstance(metric, Gauge):
        return None
    values = list(metric.series().values())
    return values or None


def resolve_signal(registry: MetricsRegistry, signal: str) -> float | None:
    """Compute a signal's current value; ``None`` means no data yet."""
    if signal in ("reject_rate", "admit_rate"):
        metric = registry.get("store_admissions_total")
        if not isinstance(metric, Counter):
            return None
        admitted = rejected = 0.0
        outcome_pos = metric.labelnames.index("outcome")
        for key, value in metric.series().items():
            if key[outcome_pos] == "admitted":
                admitted += value
            elif key[outcome_pos] == "rejected":
                rejected += value
        offered = admitted + rejected
        if offered == 0:
            return None
        rate = rejected / offered
        return rate if signal == "reject_rate" else 1.0 - rate
    if signal == "evictions_total":
        return _resolve_selector(registry, "store_evictions_total:sum")
    if signal.startswith("occupancy_"):
        suffix = signal[len("occupancy_"):]
        if suffix in ("min", "mean", "max"):
            values = _gauge_values(registry, "store_occupancy_ratio")
            return None if values is None else _aggregate_scalar(values, suffix)
    if signal.startswith("importance_density_"):
        suffix = signal[len("importance_density_"):]
        if suffix in ("min", "mean", "max") or _PERCENTILE_RE.match(suffix):
            values = _gauge_values(registry, "store_importance_density")
            return None if values is None else _aggregate_scalar(values, suffix)
    if signal == "gossip_convergence_rounds":
        metric = registry.get("gossip_convergence_rounds")
        if not isinstance(metric, Gauge):
            return None
        values = list(metric.series().values())
        return values[-1] if values else None
    return _resolve_selector(registry, signal)


# -- the engine ------------------------------------------------------------


@dataclass
class AlertEngine:
    """Evaluates a rule set against a registry; remembers first violations.

    The engine is re-evaluated at every scrape during an instrumented
    run; :attr:`first_violation` keeps the earliest simulation time each
    rule was seen failing (useful for "when did the run go unhealthy"),
    and :meth:`results` always reflects the latest evaluation.
    """

    rules: tuple[AlertRule, ...]
    #: Earliest sim time (minutes) each rule failed, by rule name.
    first_violation: dict[str, float] = field(default_factory=dict)
    #: Number of evaluations in which each rule failed.
    violation_counts: dict[str, int] = field(default_factory=dict)
    _last: tuple[AlertResult, ...] = field(default=(), repr=False)
    evaluations: int = 0

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "AlertEngine":
        """Build from ``(name, expression)`` pairs (the picklable form)."""
        return cls(rules=tuple(parse_rule(name, expr) for name, expr in pairs))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "AlertEngine":
        return cls.from_pairs(mapping.items())

    def evaluate(
        self, registry: MetricsRegistry, *, now: float | None = None
    ) -> tuple[AlertResult, ...]:
        """Evaluate every rule; records violations and returns the results."""
        results: list[AlertResult] = []
        for rule in self.rules:
            value = resolve_signal(registry, rule.signal)
            passed = None if value is None else rule.check(value)
            if passed is False:
                self.violation_counts[rule.name] = (
                    self.violation_counts.get(rule.name, 0) + 1
                )
                if now is not None and rule.name not in self.first_violation:
                    self.first_violation[rule.name] = now
            results.append(AlertResult(rule=rule, value=value, passed=passed))
        self._last = tuple(results)
        self.evaluations += 1
        return self._last

    def results(self) -> tuple[AlertResult, ...]:
        """The latest evaluation's results (empty before any evaluation)."""
        return self._last

    @property
    def passed(self) -> bool:
        """True when no rule currently fails (no-data counts as passing)."""
        return all(r.passed is not False for r in self._last)

    @property
    def failed_results(self) -> tuple[AlertResult, ...]:
        return tuple(r for r in self._last if r.passed is False)

    def to_dict(self) -> dict:
        """JSON-friendly snapshot (travels in telemetry payloads)."""
        return {
            "passed": self.passed,
            "evaluations": self.evaluations,
            "rules": [
                {
                    "name": r.rule.name,
                    "expr": r.rule.expr,
                    "value": r.value,
                    "passed": r.passed,
                    "first_violation": self.first_violation.get(r.rule.name),
                    "violations": self.violation_counts.get(r.rule.name, 0),
                }
                for r in self._last
            ],
        }

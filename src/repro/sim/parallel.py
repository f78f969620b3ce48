"""Parallel sweep execution over picklable run specifications.

Every run of an experiment — one CLI invocation, one sweep point, one
seed replica — is described by a single frozen :class:`RunSpec`.  The
spec is the *only* thing that crosses a process boundary: workers import
the experiment registry themselves, rebuild a fresh :mod:`repro.obs`
STATE, execute the spec, and ship back a picklable :class:`RunOutcome`
(rendered text, the typed result, telemetry payload, or a structured
error).

Determinism is by construction:

* each spec is self-contained (workloads draw from ``Random(seed)``, no
  process-global RNG state is consulted), so a spec's artifacts do not
  depend on which worker runs it or in which order;
* :func:`seed_for` derives per-replica seeds from the spec contents
  alone — replica 0 keeps the user's seed byte-for-byte compatible with
  the historical serial path;
* :func:`run_specs` returns outcomes in submission order regardless of
  completion order, so ``--jobs 1`` and ``--jobs 8`` emit identical
  artifact bytes.

The executor defaults to the ``spawn`` start method: workers begin from
a clean interpreter, which makes the per-worker observability isolation
trivially true and keeps behaviour identical across platforms.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import re
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import product
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ReproError

__all__ = [
    "ObsOptions",
    "RunError",
    "RunOutcome",
    "RunSpec",
    "execute_spec",
    "expand_sweep",
    "run_shards",
    "run_specs",
    "seed_for",
]

_SLUG_RE = re.compile(r"[^A-Za-z0-9_.=-]+")


@dataclass(frozen=True)
class ObsOptions:
    """Per-run observability configuration (picklable, all-off default)."""

    metrics: bool = False
    trace: bool = False
    #: Ship the tracer's span records back as a trace shard
    #: (:mod:`repro.obs.traceexport`) in the telemetry payload under
    #: ``"trace"``.
    trace_export: bool = False
    #: Sweep-level trace id tagged onto every span record.  Derive it
    #: with :func:`repro.obs.traceexport.trace_id_for` so all workers of
    #: one sweep agree; empty = derived per spec.
    trace_id: str = ""
    #: Sim-time scrape cadence for the time-series collector; None = off.
    scrape_interval_days: float | None = None
    log_level: str | None = None
    log_file: str | None = None
    #: Record a decision-provenance ledger (:mod:`repro.obs.audit`).
    audit: bool = False
    #: Per-object sampling rate of the audit ledger, in (0, 1].
    audit_sample: float = 1.0
    #: SLO rules as picklable ``(name, expression)`` pairs; empty = off.
    alert_rules: tuple[tuple[str, str], ...] = ()

    @property
    def enabled(self) -> bool:
        """Whether any instrumentation is requested."""
        return bool(
            self.metrics
            or self.trace
            or self.trace_export
            or self.scrape_interval_days
            or self.log_level
            or self.log_file
            or self.audit
            or self.alert_rules
        )


def _normalise_params(params: Any) -> tuple[tuple[str, Any], ...]:
    if isinstance(params, Mapping):
        items = params.items()
    else:
        items = tuple(params)
    out = tuple(sorted((str(k), v) for k, v in items))
    seen = [k for k, _v in out]
    if len(set(seen)) != len(seen):
        raise ReproError(f"duplicate parameter names in {seen}")
    return out


@dataclass(frozen=True)
class RunSpec:
    """One experiment run, fully described and picklable.

    Attributes
    ----------
    experiment:
        Registry name (``fig6``, ``sec53``, ``ext-churn``, ...).
    params:
        Extra keyword overrides for the experiment driver, stored as a
        sorted tuple of ``(name, value)`` pairs so specs hash and compare
        structurally.  A mapping is accepted and normalised.
    seed:
        Base RNG seed.  The *effective* seed is :func:`seed_for`, which
        folds :attr:`replica` in deterministically.
    horizon_days:
        Simulated horizon; None means "the experiment's own default".
    replica:
        Replica index of a seed sweep (0 = the base run).
    obs:
        Observability options applied inside the (worker) run.
    """

    experiment: str
    params: tuple[tuple[str, Any], ...] = ()
    seed: int = 42
    horizon_days: float | None = None
    replica: int = 0
    obs: ObsOptions = field(default_factory=ObsOptions)

    def __post_init__(self) -> None:
        if not self.experiment:
            raise ReproError("RunSpec.experiment must be a non-empty name")
        if self.replica < 0:
            raise ReproError(f"replica must be >= 0, got {self.replica}")
        object.__setattr__(self, "params", _normalise_params(self.params))

    # -- construction ------------------------------------------------------

    def with_overrides(self, **changes: Any) -> "RunSpec":
        """A copy with fields replaced (params re-normalised)."""
        return replace(self, **changes)

    # -- access ------------------------------------------------------------

    def param(self, name: str, default: Any = None) -> Any:
        """One parameter override, or ``default``."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def call_kwargs(self, *, seed: bool = True, horizon: bool = True) -> dict[str, Any]:
        """Keyword arguments for the experiment driver.

        ``seed``/``horizon`` let drivers without those knobs (table1,
        fig8) opt out; ``horizon_days`` is omitted when unset so the
        driver's own default applies.
        """
        kwargs: dict[str, Any] = dict(self.params)
        if seed:
            kwargs["seed"] = seed_for(self)
        if horizon and self.horizon_days is not None:
            kwargs["horizon_days"] = self.horizon_days
        return kwargs

    def slug(self) -> str:
        """Filesystem-safe identity, e.g. ``fig6-capacity_gib=40-r1``."""
        parts = [self.experiment]
        parts.extend(f"{k}={v}" for k, v in self.params)
        if self.horizon_days is not None:
            parts.append(f"h={self.horizon_days:g}")
        if self.replica:
            parts.append(f"r{self.replica}")
        return _SLUG_RE.sub("_", "-".join(parts))


def seed_for(spec: RunSpec) -> int:
    """Deterministic effective seed of one spec.

    Replica 0 returns the base seed unchanged (bit-compatible with the
    historical serial path); higher replicas derive a stable 63-bit seed
    from the experiment name, base seed and replica index via SHA-256 —
    independent of worker count, scheduling, or ``PYTHONHASHSEED``.
    """
    if spec.replica == 0:
        return spec.seed
    ident = f"{spec.experiment}|{spec.seed}|{spec.replica}".encode()
    return int.from_bytes(hashlib.sha256(ident).digest()[:8], "big") >> 1


@dataclass(frozen=True)
class RunError:
    """Structured, picklable failure report from one spec."""

    exc_type: str
    message: str
    traceback: str

    @classmethod
    def from_exception(cls, exc: BaseException) -> "RunError":
        return cls(
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )

    def render(self) -> str:
        return f"{self.exc_type}: {self.message}"


@dataclass(frozen=True)
class RunOutcome:
    """Everything a parent process gets back from one executed spec."""

    spec: RunSpec
    ok: bool
    wall_seconds: float
    rendered: str | None = None
    #: The experiment's typed result (``execute(spec)``); CSV rows are
    #: built from it only where ``--csv`` writes them.
    result: Any = None
    #: Telemetry payload (:func:`repro.obs.export_payload`) when obs was on.
    telemetry: dict[str, Any] | None = None
    error: RunError | None = None


def execute_spec(spec: RunSpec) -> RunOutcome:
    """Execute one spec in the current process.

    This is the worker entry point of :func:`run_specs`, and equally the
    ``--jobs 1`` inline path — both run exactly this code.  When the
    spec requests observability, the process-global obs STATE is reset
    first, so each spec sees a fresh registry/tracer/collector; the
    telemetry snapshot travels back in the outcome.
    """
    from repro import obs as obs_mod
    from repro.experiments import registry

    opts = spec.obs

    def telemetry() -> dict[str, Any] | None:
        if not opts.enabled:
            return None
        return obs_mod.export_payload(spec.experiment, trace=opts.trace_export)

    if opts.enabled:
        slug = spec.slug()
        trace_id = opts.trace_id
        if opts.trace_export and not trace_id:
            # Imported lazily: un-traced runs never load the module.
            from repro.obs.traceexport import trace_id_for

            trace_id = trace_id_for((slug,))
        obs_mod.reset()
        state = obs_mod.enable(tracer=obs_mod.Tracer(trace_id=trace_id, spec=slug))
        if opts.log_level or opts.log_file:
            obs_mod.configure_logging(
                opts.log_level or "info", opts.log_file or sys.stderr
            )
        if opts.scrape_interval_days:
            state.timeseries = obs_mod.TimeSeriesCollector(
                interval_minutes=opts.scrape_interval_days * 1440.0
            )
        if opts.audit:
            # Imported lazily: un-audited runs never load the module.
            from repro.obs.audit import AuditLedger

            state.audit = AuditLedger(sample=opts.audit_sample)
        if opts.alert_rules:
            from repro.obs.alerts import AlertEngine

            state.alerts = AlertEngine.from_pairs(opts.alert_rules)
    t0 = perf_counter()
    try:
        # The worker root span: every span of this spec's shard — engine
        # loops, placement decisions, renders — nests under one parentless
        # ``worker.run``, so per-shard trees and the sweep critical path
        # have a well-defined root.
        with obs_mod.STATE.tracer.span("worker.run") if opts.enabled else nullcontext():
            result, rendered = registry.run_cli(spec)
    except Exception as exc:
        return RunOutcome(
            spec=spec,
            ok=False,
            wall_seconds=perf_counter() - t0,
            telemetry=telemetry(),
            error=RunError.from_exception(exc),
        )
    finally:
        if opts.enabled:
            obs_mod.STATE.logger.close()
            obs_mod.disable()
    if opts.enabled and obs_mod.STATE.alerts is not None:
        # Always close with an end-of-run evaluation: engine-less drives
        # (direct cluster offers) may never have hit a scrape, and final
        # counters are what the CI gate should judge.
        obs_mod.STATE.alerts.evaluate(obs_mod.STATE.registry)
    return RunOutcome(
        spec=spec,
        ok=True,
        wall_seconds=perf_counter() - t0,
        rendered=rendered,
        result=result,
        telemetry=telemetry(),
    )


def run_specs(
    specs: Iterable[RunSpec],
    *,
    jobs: int = 1,
    start_method: str = "spawn",
    on_outcome: Callable[[RunOutcome], None] | None = None,
) -> list[RunOutcome]:
    """Execute specs, ``jobs`` at a time, preserving submission order.

    ``jobs <= 1`` runs inline (no pool, no pickling) through the exact
    worker code path.  With a pool, one crashing spec yields a
    structured-error outcome while the remaining specs complete.
    ``on_outcome`` fires as outcomes arrive (completion order) — for
    progress reporting, not for result consumption.
    """
    spec_list = list(specs)
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(spec_list) <= 1:
        outcomes = []
        for spec in spec_list:
            outcome = execute_spec(spec)
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
        return outcomes

    context = multiprocessing.get_context(start_method)
    results: list[RunOutcome | None] = [None] * len(spec_list)
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(spec_list)), mp_context=context
    ) as pool:
        futures = {
            pool.submit(execute_spec, spec): index
            for index, spec in enumerate(spec_list)
        }
        for future in as_completed(futures):
            index = futures[future]
            try:
                outcome = future.result()
            except BaseException as exc:  # worker process died, pool broke, ...
                outcome = RunOutcome(
                    spec=spec_list[index],
                    ok=False,
                    wall_seconds=0.0,
                    error=RunError(
                        exc_type=type(exc).__name__,
                        message=str(exc),
                        traceback="",
                    ),
                )
            results[index] = outcome
            if on_outcome is not None:
                on_outcome(outcome)
    return [outcome for outcome in results if outcome is not None]


def run_shards(
    experiment: str,
    params: Mapping[str, Any],
    shards: int,
    *,
    seed: int,
    horizon_days: float | None,
    jobs: int = 1,
) -> list[Any]:
    """Run every shard of a fleet and return their typed results in shard order.

    Shard ``i`` is one ``experiment`` spec with ``params | {"shard": i}``;
    :func:`run_specs` keeps submission order, so the caller's fold sees
    the same results in the same order at any ``jobs``.  Any failed shard
    raises :class:`ReproError` naming the first one — no partial fleet is
    ever returned.
    """
    specs = [
        RunSpec(experiment, params={**params, "shard": shard}, seed=seed,
                horizon_days=horizon_days)
        for shard in range(shards)
    ]
    outcomes = run_specs(specs, jobs=jobs)
    for shard, outcome in enumerate(outcomes):
        if not outcome.ok:
            raise ReproError(f"{experiment} shard {shard} failed: {outcome.error.render()}")
    return [outcome.result for outcome in outcomes]


def expand_sweep(
    experiment: str,
    *,
    grid: Mapping[str, Sequence[Any]] | None = None,
    seeds: int = 1,
    base_seed: int = 42,
    horizon_days: float | None = None,
    obs: ObsOptions | None = None,
) -> list[RunSpec]:
    """Cross-product a parameter grid × seed replicas into specs.

    The expansion order is deterministic: grid keys sorted, values in
    the given order, replicas innermost — so a sweep's spec list (and
    therefore its artifact ordering) never depends on dict iteration or
    worker scheduling.
    """
    if seeds < 1:
        raise ReproError(f"seeds must be >= 1, got {seeds}")
    grid = dict(grid or {})
    keys = sorted(grid)
    for key in keys:
        if not grid[key]:
            raise ReproError(f"sweep parameter {key!r} has no values")
    combos = product(*(grid[key] for key in keys)) if keys else (() ,)
    specs: list[RunSpec] = []
    for combo in combos:
        params = tuple(zip(keys, combo))
        for replica in range(seeds):
            specs.append(
                RunSpec(
                    experiment=experiment,
                    params=params,
                    seed=base_seed,
                    horizon_days=horizon_days,
                    replica=replica,
                    obs=obs or ObsOptions(),
                )
            )
    return specs

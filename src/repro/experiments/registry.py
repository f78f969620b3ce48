"""Experiment registry: one table from experiment name to its module.

Every entry is a module with the same four names, so the CLI, the
parallel sweep executor and the benchmarks share one shape:

* ``execute(spec)`` — run a :class:`~repro.sim.parallel.RunSpec` and
  return the experiment's typed result;
* ``render(result)`` — the printable report;
* ``CSV_HEADERS`` and ``csv_rows(result)`` — the ``--csv`` artifact.

::

    from repro.sim.parallel import RunSpec
    from repro.experiments import registry

    result, rendered = registry.run_cli(RunSpec("fig6"))
    headers, rows = registry.csv_table("fig6", result)

The typed result is what crosses a process boundary
(:attr:`repro.sim.parallel.RunOutcome.result`); CSV rows are built only
where ``--csv`` writes them.
"""

from __future__ import annotations

import importlib
from contextlib import nullcontext
from types import ModuleType
from typing import Any, Iterable

from repro.errors import ReproError
from repro.sim.parallel import RunSpec

__all__ = ["csv_table", "names", "run_cli", "run_experiment"]

#: Experiment name -> module path, in canonical (paper) order.
_MODULES: dict[str, str] = {
    "fig2": "repro.experiments.fig2_storage_requirements",
    "fig3": "repro.experiments.fig3_lifetimes",
    "fig4": "repro.experiments.fig4_rejections",
    "fig5": "repro.experiments.fig5_timeconstant",
    "fig6": "repro.experiments.fig6_density",
    "fig7": "repro.experiments.fig7_cdf",
    "fig8": "repro.experiments.fig8_downloads",
    "table1": "repro.experiments.table1_parameters",
    "fig9": "repro.experiments.fig9_lecture_lifetimes",
    "fig10": "repro.experiments.fig10_reclamation_importance",
    "fig11": "repro.experiments.fig11_lecture_timeconstant",
    "fig12": "repro.experiments.fig12_lecture_density",
    "sec53": "repro.experiments.sec53_university",
    "sec54-shard": "repro.sim.shard",
    "sec54-mega": "repro.experiments.sec54_mega",
    "serve-shard": "repro.serve.sharded",
    "serve-flash": "repro.serve.loadgen",
    "ext-mixed": "repro.experiments.ext_mixed_apps",
    "ext-churn": "repro.experiments.ext_churn",
    "ext-refresh": "repro.experiments.ext_refresh",
    "ext-reads": "repro.experiments.ext_reads",
    "ext-advisor": "repro.experiments.ext_advisor_loop",
}


def names() -> Iterable[str]:
    """Registered experiment names, in canonical (paper) order."""
    return tuple(_MODULES)


def _module(experiment: str) -> ModuleType:
    try:
        path = _MODULES[experiment]
    except KeyError:
        raise ReproError(
            f"unknown experiment {experiment!r}; known: {', '.join(_MODULES)}"
        ) from None
    return importlib.import_module(path)


def run_cli(spec: RunSpec) -> tuple[Any, str]:
    """Execute a spec and render it: ``(typed result, rendered report)``."""
    from repro.core.obj import reset_object_ids
    from repro.obs import STATE as _OBS

    mod = _module(spec.experiment)
    # Auto-generated object ids restart at obj-000000 for every spec, so
    # artifacts that name objects (the audit ledger above all) come out
    # byte-identical whether specs run inline (--jobs 1, where the
    # process-global counter would otherwise keep counting across specs)
    # or in fresh worker processes.
    reset_object_ids()
    # One span per dispatched spec: serial multi-experiment runs get a
    # per-experiment subtree, and trace shards attribute setup/render
    # time (everything outside engine.run) to the spec that spent it.
    with _OBS.tracer.span(f"spec.{spec.experiment}") if _OBS.enabled else nullcontext():
        result = mod.execute(spec)
        return result, mod.render(result)


def run_experiment(spec: RunSpec) -> Any:
    """Execute a spec and return the experiment's typed result object."""
    result, _rendered = run_cli(spec)
    return result


def csv_table(experiment: str, result: Any) -> tuple[tuple[str, ...], list]:
    """``(headers, rows)`` of one experiment result — the ``--csv`` artifact."""
    mod = _module(experiment)
    return tuple(mod.CSV_HEADERS), list(mod.csv_rows(result))

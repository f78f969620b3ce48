"""Reporting substrate: text tables, ASCII charts and CSV emission.

The evaluation environment has no plotting stack, so every figure is
reproduced as (a) the printed numeric series and (b) an ASCII chart good
enough to eyeball the published shape, with CSV export for external
plotting.
"""

from repro.report.table import TextTable
from repro.report.asciichart import ascii_plot, ascii_cdf, sparkline
from repro.report.csvout import write_csv
from repro.report.metrics import metrics_summary

# Flamegraph names resolve lazily (PEP 562): every experiment module
# triggers this package's import, and the trace pipeline must stay
# un-imported unless a run opts in (same contract as obs.audit/alerts).
_FLAMEGRAPH_NAMES = ("collapsed_stacks", "critical_path", "render_critical_path")


def __getattr__(name: str):
    if name in _FLAMEGRAPH_NAMES:
        from repro.report import flamegraph

        return getattr(flamegraph, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "TextTable",
    "ascii_cdf",
    "ascii_plot",
    "collapsed_stacks",
    "critical_path",
    "metrics_summary",
    "render_critical_path",
    "sparkline",
    "write_csv",
]

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

__all__ = [
    "TextTable",
    "ascii_cdf",
    "ascii_plot",
    "metrics_summary",
    "sparkline",
    "write_csv",
]

"""Figure 8 — lecture downloads per day (Spring '06 trace).

The original is a web-log trace of the authors' 38-student OS course; we
synthesise an equivalent with the documented features (per-release surges
with decay, pre-exam review boosts, a brief slashdot burst, post-term
tail-off) via :mod:`repro.sim.workload.downloads`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.report.asciichart import ascii_plot
from repro.report.table import TextTable
from repro.sim.workload.downloads import DownloadTraceConfig, synthesize_download_trace
from repro.sim.parallel import RunSpec

__all__ = ["Fig8Result", "execute", "render", "CSV_HEADERS", "csv_rows"]


@dataclass(frozen=True)
class Fig8Result:
    """The synthetic daily-download trace and its landmarks."""

    trace: tuple[tuple[int, int], ...]
    config: DownloadTraceConfig
    peak_day: int
    peak_downloads: int
    total_downloads: int
    mean_in_term: float
    mean_after_term: float


def _run(*, config: DownloadTraceConfig | None = None, seed: int = 0) -> Fig8Result:
    """Synthesise the Figure 8 trace."""
    cfg = config or DownloadTraceConfig()
    trace = synthesize_download_trace(cfg, seed=seed)
    peak_day, peak = max(trace, key=lambda p: p[1])
    in_term = [n for day, n in trace if day < cfg.term_end_day]
    after = [n for day, n in trace if day >= cfg.term_end_day]
    return Fig8Result(
        trace=tuple(trace),
        config=cfg,
        peak_day=peak_day,
        peak_downloads=peak,
        total_downloads=sum(n for _d, n in trace),
        mean_in_term=sum(in_term) / len(in_term) if in_term else 0.0,
        mean_after_term=sum(after) / len(after) if after else 0.0,
    )


def render(result: Fig8Result) -> str:
    """Printable reproduction of Figure 8."""
    chart = ascii_plot(
        {"downloads/day": [(float(d), float(n)) for d, n in result.trace]},
        title="Figure 8: lecture downloads per day (synthetic Spring '06 trace)",
        x_label="day of year",
        y_label="downloads",
    )
    table = TextTable(["landmark", "value"], title="Trace landmarks")
    table.add_row(["peak day (slashdot burst)", result.peak_day])
    table.add_row(["peak downloads", result.peak_downloads])
    table.add_row(["total downloads", result.total_downloads])
    table.add_row(["mean/day in term", round(result.mean_in_term, 1)])
    table.add_row(["mean/day after term", round(result.mean_after_term, 1)])
    table.add_row(["exam days", ", ".join(map(str, result.config.exam_days))])
    return chart + "\n\n" + table.render()


CSV_HEADERS = ("day", "downloads")


def csv_rows(result: Fig8Result) -> list[tuple]:
    """The daily download trace."""
    return list(result.trace)


def execute(spec: RunSpec) -> Fig8Result:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs(horizon=False))

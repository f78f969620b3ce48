"""Palimpsest time-constant estimation (paper Sections 5.1.2 and 5.2.3).

Palimpsest gives no system guarantees; an application must *predict* how
long its objects will survive the FIFO sweep and refresh them in time.
That sojourn is the store's **time constant**::

    tau = capacity / arrival_rate

An application estimates the arrival rate by watching arrivals over some
window (an hour, a day, a month) — so the quality of its prediction is the
stability of the windowed ``tau`` series.  The paper shows hourly
estimates vary wildly, daily estimates are heteroscedastic, and only
month-long windows settle down — by which time objects may already have
been swept (Figures 5 and 11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.summarize import coefficient_of_variation, describe
from repro.core.store import ArrivalRecord
from repro.units import MINUTES_PER_DAY, MINUTES_PER_HOUR, MINUTES_PER_MONTH, to_days

__all__ = [
    "WINDOW_HOUR",
    "WINDOW_DAY",
    "WINDOW_MONTH",
    "TimeConstantSeries",
    "estimate_time_constants",
]

WINDOW_HOUR = float(MINUTES_PER_HOUR)
WINDOW_DAY = float(MINUTES_PER_DAY)
WINDOW_MONTH = float(MINUTES_PER_MONTH)


@dataclass(frozen=True)
class TimeConstantSeries:
    """Windowed time-constant estimates for one analysis granularity.

    ``points`` holds ``(window_start_minutes, tau_minutes)`` pairs; windows
    with zero offered bytes are skipped (an application watching an idle
    window learns nothing and would extrapolate ``tau = ∞``, counted in
    ``empty_windows``).
    """

    window_minutes: float
    capacity_bytes: int
    points: tuple[tuple[float, float], ...]
    empty_windows: int

    @property
    def taus(self) -> tuple[float, ...]:
        return tuple(tau for _t, tau in self.points)

    def stability(self) -> dict[str, float]:
        """Summary stats of the tau series (days), incl. the CV figure-of-merit."""
        if not self.points:
            return {"n": 0.0, "cv": math.inf}
        taus_days = [to_days(tau) for tau in self.taus]
        desc = describe(taus_days)
        out = desc.as_dict()
        out["cv"] = coefficient_of_variation(taus_days)
        out["empty_windows"] = float(self.empty_windows)
        return out


def estimate_time_constants(
    arrivals: list[ArrivalRecord],
    capacity_bytes: int,
    window_minutes: float,
    *,
    t_start: float = 0.0,
    t_end: float | None = None,
    offered: bool = True,
) -> TimeConstantSeries:
    """Estimate ``tau = capacity / rate`` over consecutive windows.

    Parameters
    ----------
    arrivals:
        The recorded arrival stream (time-ordered).
    capacity_bytes:
        Raw capacity of the store being predicted.
    window_minutes:
        Window length (use :data:`WINDOW_HOUR` / :data:`WINDOW_DAY` /
        :data:`WINDOW_MONTH` for the paper's three granularities).
    offered:
        Measure the *offered* byte rate (what a client can observe on the
        wire).  With False only admitted arrivals count — the fill rate a
        node-local observer sees.
    """
    if capacity_bytes <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_bytes}")
    if window_minutes <= 0:
        raise ValueError(f"window must be positive, got {window_minutes}")
    if t_end is None:
        t_end = arrivals[-1].t if arrivals else t_start
    if t_end < t_start:
        raise ValueError(f"t_end {t_end} precedes t_start {t_start}")

    # Only complete windows are estimated: a trailing partial window
    # under-counts its bytes and yields a spuriously inflated tau.
    n_windows = max(1, int((t_end - t_start) // window_minutes))
    bytes_per_window = [0] * n_windows
    for record in arrivals:
        if record.t < t_start or record.t >= t_start + n_windows * window_minutes:
            continue
        if not offered and not record.admitted:
            continue
        idx = int((record.t - t_start) // window_minutes)
        bytes_per_window[idx] += record.size

    points: list[tuple[float, float]] = []
    empty = 0
    for idx, window_bytes in enumerate(bytes_per_window):
        start = t_start + idx * window_minutes
        if window_bytes == 0:
            empty += 1
            continue
        rate = window_bytes / window_minutes  # bytes per minute
        points.append((start, capacity_bytes / rate))
    return TimeConstantSeries(
        window_minutes=window_minutes,
        capacity_bytes=capacity_bytes,
        points=tuple(points),
        empty_windows=empty,
    )

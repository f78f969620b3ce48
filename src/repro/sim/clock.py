"""Simulation clock.

A tiny monotonic clock in simulation minutes.  The engine owns one and
advances it as events are dispatched; user code should treat the clock as
read-only and obtain the current time from the engine or the event
callbacks.
"""

from __future__ import annotations

import math

from repro.errors import ClockError

__all__ = ["SimClock"]


class SimClock:
    """Monotonic clock counting simulation minutes since the epoch."""

    __slots__ = ("_now",)

    def __init__(self, start_minutes: float = 0.0) -> None:
        if math.isnan(start_minutes) or start_minutes < 0.0:
            raise ClockError(f"start time must be >= 0 minutes, got {start_minutes!r}")
        self._now = float(start_minutes)

    @property
    def now(self) -> float:
        """Current simulation time in minutes."""
        return self._now

    def advance_to(self, t_minutes: float) -> float:
        """Move the clock forward to ``t_minutes``.

        Raises :class:`ClockError` if that would move time backwards; the
        engine relies on this to surface scheduling bugs immediately.
        """
        t = float(t_minutes)
        if math.isnan(t):
            raise ClockError("cannot advance clock to NaN")
        if t < self._now:
            raise ClockError(f"clock cannot move backwards: {t} < {self._now}")
        self._now = t
        return self._now

    def advance_by(self, delta_minutes: float) -> float:
        """Move the clock forward by a non-negative ``delta_minutes``."""
        delta = float(delta_minutes)
        if math.isnan(delta) or delta < 0.0:
            raise ClockError(f"clock delta must be >= 0, got {delta_minutes!r}")
        self._now += delta
        return self._now

"""Per-phase wall-clock profiling of the simulator's hot paths.

:mod:`repro.obs.tracing` answers "where did *this run's* wall-clock go"
with a span tree; the :class:`PhaseProfiler` is its flat, always-cheap
sibling for the named phases the ROADMAP's performance work cares about —
engine event dispatch, victim selection (admission planning), Besteffs
placement rounds, gossip rounds.  Each observation is two dict lookups
plus a histogram update, and everything also lands in the metrics
registry (``profile_phase_seconds{phase=...}``) so phase timings flow
through ``--metrics-out`` exports, the time-series collector and the metrics
summary with no extra plumbing.

Instrumentation sites are gated on ``obs.STATE.enabled`` exactly like the
metrics sites, so disabled runs never reach this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

from repro.obs.tracing import SpanStats

__all__ = ["PhaseProfiler", "PROFILE_METRIC"]

#: Registry histogram fed by every observation.
PROFILE_METRIC = "profile_phase_seconds"


class PhaseProfiler:
    """Exact per-phase wall-clock aggregates, mirrored into the registry."""

    def __init__(self) -> None:
        self._stats: dict[str, SpanStats] = {}

    def observe(self, phase: str, seconds: float) -> None:
        """Record one timed occurrence of ``phase``.

        Callers that already hold a measured duration (e.g. the engine's
        per-callback timing) feed it here directly instead of paying a
        second pair of ``perf_counter`` calls.
        """
        stats = self._stats.get(phase)
        if stats is None:
            stats = self._stats[phase] = SpanStats()
        stats.observe(seconds)
        from repro.obs import STATE

        STATE.registry.histogram(
            PROFILE_METRIC,
            "Wall-clock seconds per profiled phase.",
            ("phase",),
        ).observe(seconds, phase=phase)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a block as one occurrence of phase ``name``."""
        start = perf_counter()
        try:
            yield
        finally:
            self.observe(name, perf_counter() - start)

    # -- reporting --------------------------------------------------------

    def stats(self, phase: str) -> SpanStats | None:
        """The aggregate for one phase, or None."""
        return self._stats.get(phase)

    def phases(self) -> list[str]:
        """Observed phase names, sorted."""
        return sorted(self._stats)

    def aggregates(self) -> dict[str, dict[str, float]]:
        """Per-phase aggregates as plain dicts (JSON-friendly)."""
        return {phase: stats.as_dict() for phase, stats in sorted(self._stats.items())}

    def render(self) -> str:
        """Aligned text table of the per-phase aggregates."""
        lines = ["phase profile (wall-clock):"]
        if not self._stats:
            lines.append("  (no phases recorded)")
            return "\n".join(lines)
        width = max(len(phase) for phase in self._stats)
        for phase, stats in sorted(self._stats.items(), key=lambda kv: -kv[1].total_s):
            lines.append(
                f"  {phase.ljust(width)}  n={stats.count:<8d} total={stats.total_s:.6f}s "
                f"mean={stats.mean_s:.6f}s max={stats.max_s:.6f}s"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        """Drop all recorded phases (the registry histogram is untouched)."""
        self._stats.clear()

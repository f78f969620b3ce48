"""Deterministic discrete-event simulation engine.

The engine keeps a binary heap of :class:`~repro.sim.events.Event` entries
and dispatches them in ``(time, priority, insertion order)`` order while
advancing a :class:`~repro.sim.clock.SimClock`.  Callbacks may schedule
further events (at or after the current time).  Periodic schedules are
provided as a convenience for measurement probes.

The native granularity is one minute, per the paper; times are floats so
workloads may place arrivals at arbitrary sub-minute offsets, but all of
the built-in workloads quantise to whole minutes.
"""

from __future__ import annotations

import heapq
import itertools
import math
from time import perf_counter
from typing import Callable

from repro.errors import SimulationError
from repro.obs import STATE as _OBS
from repro.sim.clock import SimClock
from repro.sim.events import Event, EventCallback

__all__ = ["SimulationEngine"]


class SimulationEngine:
    """Event loop driving a simulation run."""

    def __init__(self, start_minutes: float = 0.0) -> None:
        self.clock = SimClock(start_minutes)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._stopped = False
        #: Number of events dispatched so far (for progress reporting).
        self.dispatched = 0

    @property
    def now(self) -> float:
        """Current simulation time in minutes."""
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    def schedule(self, event: Event) -> None:
        """Queue an event; it must not be in the past."""
        if event.time < self.clock.now:
            raise SimulationError(
                f"cannot schedule event at {event.time} before now={self.clock.now}"
            )
        heapq.heappush(self._heap, (event.time, event.priority, next(self._seq), event))

    def schedule_at(
        self,
        time_minutes: float,
        callback: EventCallback,
        *,
        priority: int = 0,
        label: str = "",
    ) -> None:
        """Convenience wrapper building and queueing an :class:`Event`."""
        self.schedule(Event(time=time_minutes, callback=callback, priority=priority, label=label))

    def schedule_periodic(
        self,
        start_minutes: float,
        interval_minutes: float,
        callback: EventCallback,
        *,
        end_minutes: float = math.inf,
        priority: int = 0,
        label: str = "",
    ) -> None:
        """Fire ``callback`` every ``interval_minutes`` from ``start``.

        The schedule re-arms itself after each firing and stops (silently)
        once the next firing would land past ``end_minutes`` or the engine
        has been stopped.
        """
        if interval_minutes <= 0 or math.isnan(interval_minutes):
            raise SimulationError(f"interval must be > 0, got {interval_minutes!r}")

        def fire(now: float) -> None:
            callback(now)
            nxt = now + interval_minutes
            if nxt <= end_minutes and not self._stopped:
                self.schedule_at(nxt, fire, priority=priority, label=label)

        if start_minutes <= end_minutes:
            self.schedule_at(start_minutes, fire, priority=priority, label=label)

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True

    def run(
        self,
        until_minutes: float,
        *,
        max_events: int | None = None,
        on_progress: Callable[[float, int], None] | None = None,
        progress_every: int = 100_000,
    ) -> int:
        """Dispatch queued events with ``time <= until_minutes``.

        Returns the number of events dispatched by this call.  The clock is
        left at ``until_minutes`` (or at the stop point) so density probes
        taken after :meth:`run` see a consistent "end of horizon" time.

        When :mod:`repro.obs` is enabled (sampled once on entry), the loop
        runs under an ``engine.run`` span and per-event dispatch counters,
        callback wall-time histograms and a queue-depth gauge are kept.
        With a time-series collector installed (``obs.STATE.timeseries``),
        the loop additionally scrapes the metrics registry whenever the
        clock crosses the collector's sim-time cadence, plus once at the
        end of the run, so density/occupancy/event series survive the run
        without any extra events in the heap.
        """
        if until_minutes < self.clock.now:
            raise SimulationError(
                f"cannot run until {until_minutes}, clock already at {self.clock.now}"
            )
        self._stopped = False
        if not _OBS.enabled:
            return self._dispatch_loop_batched(
                until_minutes, max_events, on_progress, progress_every, instrumented=False
            )
        with _OBS.tracer.span("engine.run", sim_time=self.clock.now):
            dispatched = self._dispatch_loop_batched(
                until_minutes, max_events, on_progress, progress_every, instrumented=True
            )
        collector = _OBS.timeseries
        if collector is not None:
            collector.maybe_scrape(self.clock.now)
        return dispatched

    def _dispatch_loop_batched(
        self,
        until_minutes: float,
        max_events: int | None,
        on_progress: Callable[[float, int], None] | None,
        progress_every: int,
        *,
        instrumented: bool,
    ) -> int:
        """The dispatch loop, draining same-timestamp runs per batch.

        Workloads quantise arrivals to whole minutes, so long runs of
        events share one timestamp; the clock advances once per distinct
        timestamp instead of once per event, and the hot loop touches only
        local names.  Events still pop in ``(time, priority, seq)`` order
        one at a time, so callbacks that schedule more work at the current
        timestamp interleave exactly as they were queued.

        Obs metering rides the same loop behind ``instrumented`` (sampled
        once, by :meth:`run`): with it off each event pays one local truth
        test.
        """
        if instrumented:
            registry = _OBS.registry
            collector = _OBS.timeseries
            events_total = registry.counter(
                "engine_events_total", "Events dispatched by the engine.", ("label",)
            )
            callback_seconds = registry.histogram(
                "engine_callback_seconds",
                "Wall-clock time spent inside event callbacks.",
                ("label",),
            )
            queue_depth = registry.gauge(
                "engine_queue_depth", "Events pending in the engine heap."
            )
        heap = self._heap
        heappop = heapq.heappop
        advance = self.clock.advance_to
        current = None
        dispatched_here = 0
        while heap and not self._stopped:
            entry = heap[0]
            t = entry[0]
            if t > until_minutes:
                break
            heappop(heap)
            if t != current:
                advance(t)
                current = t
            if instrumented:
                event = entry[3]
                label = event.label or "unlabeled"
                t0 = perf_counter()
                event.callback(t)
                callback_seconds.observe(perf_counter() - t0, label=label)
                events_total.inc(label=label)
                queue_depth.set(len(heap))
                if collector is not None and t >= collector.next_due:
                    # Scrapes walk every registry series; under a span so
                    # trace shards separate scrape cost from event cost.
                    with _OBS.tracer.span("engine.scrape", sim_time=t):
                        collector.scrape(t, registry)
                        alerts = _OBS.alerts
                        if alerts is not None:
                            # Scrape-time SLO evaluation: first-violation
                            # sim times come from here (the end-of-run
                            # evaluation alone could not date a transient
                            # breach).
                            alerts.evaluate(registry, now=t)
            else:
                entry[3].callback(t)
            dispatched_here += 1
            # Published per event: a callback reading the counter mid-run
            # sees the events before it, and a raising one is not counted.
            self.dispatched += 1
            if max_events is not None and dispatched_here >= max_events:
                break
            if on_progress is not None and dispatched_here % progress_every == 0:
                on_progress(t, dispatched_here)
        if not self._stopped and (max_events is None or dispatched_here < max_events):
            self.clock.advance_to(until_minutes)
        return dispatched_here

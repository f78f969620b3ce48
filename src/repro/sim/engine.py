"""The simulation dispatch loop (paper Section 4.3, minute granularity).

Every run is one time-ordered arrival stream (:meth:`SimulationEngine.feed`)
merged with a few fixed-cadence ticks (:meth:`SimulationEngine.every`):
density probes, the Figure 7 snapshot trigger, the Section 5.4 epoch
barriers.  At each timestamp the ``first`` ticks due fire, then that
timestamp's arrivals in stream order, then the other ticks due; ticks of
one phase fire in registration order.  So a probe at time T observes the
store after the time-T arrivals, and a barrier closes its epoch before
the next epoch's first arrivals.  The engine owns the sim clock, so it
also runs the scrape (:func:`repro.sim.probes.scrape`) of the fed units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import SimulationError
from repro.obs import STATE as _OBS
from repro.sim.probes import scrape
from repro.units import days, on_exact_grid

if TYPE_CHECKING:
    from repro.core.obj import StoredObject

__all__ = ["SimulationEngine", "horizon_minutes"]


def horizon_minutes(horizon_days: float) -> float:
    """``days(horizon_days)``, refused unless a whole minute: what a driver
    that reads its units at the horizon checks before it dispatches."""
    horizon = days(horizon_days)
    if not on_exact_grid(horizon):
        raise SimulationError(f"a horizon of {horizon_days!r} days is {horizon!r} minutes")
    return horizon


@dataclass(slots=True)
class _Tick:
    """One fixed-cadence callback and the time it fires next."""

    at: float
    interval: float
    callback: Callable[[float], None]
    label: str
    first: bool


class SimulationEngine:
    """One arrival stream merged with fixed-cadence ticks."""

    def __init__(self) -> None:
        #: Current simulation time in minutes.
        self.now = 0.0
        #: Arrivals offered plus ticks fired so far, published per event.
        self.dispatched = 0
        self._ticks: list[_Tick] = []
        self._offer: Callable[[StoredObject, float], object] | None = None
        self._stream = iter(())
        self._horizon = math.inf
        self._last = 0.0
        self._next: StoredObject | None = None
        self._units: Iterable = ()

    def feed(
        self,
        arrivals: Iterable[StoredObject],
        offer: Callable[[StoredObject, float], object],
        *,
        horizon_minutes: float = math.inf,
        units: Iterable = (),
    ) -> None:
        """Offer a time-ordered stream as ``offer(obj, t_arrival)``.

        The stream is drawn one object ahead and must be non-decreasing in
        ``t_arrival`` (else :class:`SimulationError` when drawn).  Arrivals
        beyond ``horizon_minutes`` are skipped while the stream keeps
        draining, so later in-horizon ones are still offered.  ``units``
        are the storage units (or Besteffs nodes) the scrapes publish
        gauges for; pass a live view such as ``cluster.nodes.values()``
        so joins and departures are seen.
        """
        if self._offer is not None:
            raise SimulationError("an engine takes one arrival stream")
        self._offer = offer
        self._stream = iter(arrivals)
        self._horizon = horizon_minutes
        self._units = units
        self._last = self.now
        self._next = self._pull()
        if _OBS.enabled and _OBS.timeseries is not None:
            # An experiment may run engines one after another, each from t=0;
            # rewind the cadence so the new stream still scrapes.
            _OBS.timeseries.rewind(self.now)

    def every(
        self,
        interval_minutes: float,
        callback: Callable[[float], None],
        *,
        start_minutes: float | None = None,
        first: bool = False,
        label: str,
    ) -> None:
        """Fire ``callback(now)`` every ``interval_minutes`` from ``start``.

        ``start_minutes`` defaults to :attr:`now`.  A tick fires after the
        arrivals of its minute, or before them when ``first`` is set.  Both
        must be whole minutes (:func:`repro.units.on_exact_grid`), so every
        tick reads the units on their clock's grid.
        """
        if not (interval_minutes > 0 and on_exact_grid(interval_minutes)):
            raise SimulationError(
                f"interval must be a whole number of minutes > 0, got {interval_minutes!r}"
            )
        start = self.now if start_minutes is None else float(start_minutes)
        if not (start >= self.now and on_exact_grid(start)):
            raise SimulationError(
                f"cannot start a tick at {start}: off the whole minutes or before now={self.now}"
            )
        self._ticks.append(_Tick(start, interval_minutes, callback, label, first))

    def run(self, until_minutes: float | None = None) -> int:
        """Dispatch every arrival and tick with ``time <= until_minutes``.

        Returns the number dispatched by this call and leaves :attr:`now`
        at ``until_minutes`` (a whole minute or ``inf``, else nothing runs);
        a later call resumes from there.  Without ``until_minutes`` the run
        drains the stream: it ends at the last arrival's minute (or at
        :attr:`now` when no arrival is left) and fires only the ticks due
        by then.  When :mod:`repro.obs` is enabled (sampled once on entry),
        the loop runs under an ``engine.run`` span with per-label dispatch
        counters and callback timings, scrapes on the collector's sim-time
        cadence, and scrapes once more at the end.
        """
        if until_minutes is not None and not (
            until_minutes >= self.now and (on_exact_grid(until_minutes) or math.isinf(until_minutes))
        ):
            raise SimulationError(
                f"cannot run until {until_minutes!r} (a whole minute, not before the "
                f"clock already at {self.now})"
            )
        before = self.dispatched
        offer = self._offer
        calls = [tick.callback for tick in self._ticks]
        if not _OBS.enabled:
            self._loop(until_minutes, offer, calls)
            return self.dispatched - before
        if offer is not None:
            offer = self._metered("arrival", offer)
        calls = [self._metered(tick.label, call) for tick, call in zip(self._ticks, calls)]
        with _OBS.tracer.span("engine.run", sim_time=self.now):
            self._loop(until_minutes, offer, calls)
        scrape(self._units, self.now)
        return self.dispatched - before

    def _pull(self) -> StoredObject | None:
        """The stream's next in-horizon arrival, or None once it is drained."""
        last = self._last
        for obj in self._stream:
            t = obj.t_arrival
            if t < last:
                raise SimulationError(f"arrival stream went backwards: {t} < {last}")
            if t <= self._horizon:
                self._last = t
                return obj
        return None

    def _loop(self, until: float | None, offer, calls: list) -> None:
        """Merge the stream with the ticks (``calls[i]`` fires tick ``i``)."""
        ticks = self._ticks
        pull = self._pull
        obj = self._next
        stop = math.inf if until is None else until
        due = min((tick.at for tick in ticks), default=math.inf)
        while True:
            t = obj.t_arrival if obj is not None else math.inf
            if t < due:
                if t > stop:
                    break
                self.now = t
                offer(obj, t)
                self.dispatched += 1
                obj = self._next = pull()
                continue
            if obj is None and until is None:
                # Drained: no tick fires past the last arrival's minute.
                stop = self.now
            t = due
            if t > stop or t == math.inf:
                break
            self.now = t
            self._fire(t, calls, first=True)
            while obj is not None and obj.t_arrival == t:
                offer(obj, t)
                self.dispatched += 1
                obj = self._next = pull()
            self._fire(t, calls, first=False)
            due = min(tick.at for tick in ticks)
        self.now = stop

    def _fire(self, t: float, calls: list, *, first: bool) -> None:
        """Fire the ticks of one phase due at ``t``, in registration order."""
        for tick, call in zip(self._ticks, calls):
            if tick.first == first and tick.at == t:
                call(t)
                self.dispatched += 1
                tick.at = t + tick.interval

    def _metered(self, label: str, callback: Callable) -> Callable:
        """``callback`` counted, timed and followed by any due scrape."""
        registry = _OBS.registry
        collector = _OBS.timeseries
        units = self._units
        events_total = registry.counter(
            "engine_events_total", "Events dispatched by the engine.", ("label",)
        )
        callback_seconds = registry.histogram(
            "engine_callback_seconds",
            "Wall-clock time spent inside event callbacks.",
            ("label",),
        )

        def call(*args) -> None:
            t0 = perf_counter()
            callback(*args)
            callback_seconds.observe(perf_counter() - t0, label=label)
            events_total.inc(label=label)
            if collector is not None and self.now >= collector.next_due:
                scrape(units, self.now)

        return call

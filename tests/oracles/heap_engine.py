"""The callback-heap engine ``repro.sim.engine`` ran before it was one loop.

Every event sat in a binary heap keyed ``(time, priority, insertion
order)``.  An arrival stream was chained lazily at priority 0 — each
arrival, once dispatched, pushed the next — and a periodic callback
re-armed itself after each firing: ticks that fire before a minute's
arrivals at priority −10, the others at +10.  This is the reference the
merge loop must reproduce, dispatch for dispatch, through the same
``feed`` / ``every`` / ``run`` surface.  A drained run (``run()``) pops
everything while an arrival is still chained, then only the events of
the minute it stopped at.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterable

from repro.core.obj import StoredObject
from repro.errors import SimulationError

__all__ = ["HeapEngine", "PRIORITY_ARRIVAL", "PRIORITY_FIRST", "PRIORITY_TICK"]

PRIORITY_FIRST = -10
PRIORITY_ARRIVAL = 0
PRIORITY_TICK = 10


class HeapEngine:
    """``(time, priority, seq)``-ordered callbacks on one heap."""

    def __init__(self) -> None:
        self.now = 0.0
        self.dispatched = 0
        self._heap: list[tuple[float, int, int, Callable[[float], None]]] = []
        self._seq = itertools.count()
        #: Whether the stream has an arrival on the heap.
        self._chained = False

    def schedule_at(
        self, t: float, callback: Callable[[float], None], *, priority: int = PRIORITY_ARRIVAL
    ) -> None:
        if t < self.now:
            raise SimulationError(f"cannot schedule event at {t} before now={self.now}")
        heapq.heappush(self._heap, (t, priority, next(self._seq), callback))

    def schedule_periodic(
        self, start: float, interval: float, callback: Callable[[float], None], *, priority: int
    ) -> None:
        def fire(now: float) -> None:
            callback(now)
            self.schedule_at(now + interval, fire, priority=priority)

        self.schedule_at(start, fire, priority=priority)

    def feed(
        self,
        arrivals: Iterable[StoredObject],
        offer: Callable[[StoredObject, float], object],
        *,
        horizon_minutes: float = math.inf,
    ) -> None:
        iterator = iter(arrivals)

        def schedule_next(previous_t: float) -> None:
            self._chained = False
            for obj in iterator:
                if obj.t_arrival < previous_t:
                    raise SimulationError(
                        f"arrival stream went backwards: {obj.t_arrival} < {previous_t}"
                    )
                if obj.t_arrival > horizon_minutes:
                    continue
                self.schedule_at(obj.t_arrival, lambda now, obj=obj: dispatch(obj, now))
                self._chained = True
                return

        def dispatch(obj: StoredObject, now: float) -> None:
            offer(obj, now)
            schedule_next(now)

        schedule_next(self.now)

    def every(
        self,
        interval_minutes: float,
        callback: Callable[[float], None],
        *,
        start_minutes: float | None = None,
        first: bool = False,
        label: str = "",
    ) -> None:
        start = self.now if start_minutes is None else start_minutes
        priority = PRIORITY_FIRST if first else PRIORITY_TICK
        self.schedule_periodic(start, interval_minutes, callback, priority=priority)

    def run(self, until_minutes: float | None = None) -> int:
        dispatched = 0
        heap = self._heap
        while heap and (
            heap[0][0] <= until_minutes
            if until_minutes is not None
            else self._chained or heap[0][0] <= self.now
        ):
            t, _priority, _seq, callback = heapq.heappop(heap)
            self.now = t
            callback(t)
            dispatched += 1
            self.dispatched += 1
        if until_minutes is not None:
            self.now = until_minutes
        return dispatched

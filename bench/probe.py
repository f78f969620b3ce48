"""Machine-speed probe: what the box could do while the workload ran.

The reference box is a shared 2-vCPU VM.  Its speed swings between 1.0x
and ~1.7x within milliseconds and drifts for minutes at a time
(neighbours on the host, not us): ten identical 10 s runs spread 15-35 %
in wall *and* CPU time, and folding repetitions together does not help
because a slow minute slows all of them.  What does help is measuring the
machine at the same moments as the workload: a timer interrupts the
workload's one thread every :data:`INTERVAL_S` and runs a fixed
reference kernel — a random walk over a ~100 MB graph of small dicts,
which like the workloads is bound by pointer chasing, and tracked them
better than arithmetic, allocation, JSON/HMAC or array-chase kernels did.
``NOMINAL_S / kernel time`` is the machine's speed at that moment, and
every reported time is scaled by the mean speed of the
:data:`WINDOW_S` window it fell in, i.e. reported in seconds of a quiet
reference machine.  The kernel's own time is taken out first.

On the experiments behind this (16 identical runs per workload) the
quartile spread of ``wall_s`` fell from 14-26 % to 4-8 % with two
repetitions averaged; see ``bench/README.md``.
"""

from __future__ import annotations

import random
import signal
from time import perf_counter
from typing import NamedTuple

__all__ = ["INTERVAL_S", "NOMINAL_S", "WINDOW_S", "SpeedProbe", "Speeds"]

#: Seconds between kernel runs (the kernel is ~2.5 % of the run).
INTERVAL_S = 0.005
#: One kernel run on the quiet reference box (5th percentile of 20 s of
#: samples with nothing else running).  A constant: it sets the unit of
#: every time metric and cancels out of every comparison.
NOMINAL_S = 135e-6
#: Times are scaled by the mean speed over windows this long.
WINDOW_S = 0.1
_NODES = 300_000
_STEPS = 200


class Speeds(NamedTuple):
    """Machine speed (1.0 = the quiet reference box) over one timed call."""

    t0: float
    t1: float
    #: Mean speed of each :data:`WINDOW_S` window (the last takes the rest).
    per_window: list[float]
    #: Kernel seconds inside each window.
    busy: list[float]
    mean: float

    def at(self, t: float) -> float:
        return self.per_window[min(len(self.per_window) - 1, int((t - self.t0) / WINDOW_S))]

    def quiet_seconds(self) -> float:
        """``t1 - t0`` without the kernel's share, at reference speed."""
        edges = [self.t0 + i * WINDOW_S for i in range(len(self.per_window))] + [self.t1]
        return sum(
            (edges[i + 1] - edges[i] - self.busy[i]) * speed
            for i, speed in enumerate(self.per_window)
        )


class SpeedProbe:
    """Samples machine speed from a timer signal while a call runs."""

    def __init__(self) -> None:
        nodes = [{"a": i, "b": float(i), "c": str(i)} for i in range(_NODES)]
        order = list(range(_NODES))
        random.Random(1).shuffle(order)
        self._nodes, self._order, self._at = nodes, order, 0
        #: ``perf_counter`` at the start of each kernel run, and how long it took.
        self.started: list[float] = []
        self.took: list[float] = []
        #: Total kernel seconds so far; a clock around an operation reads it
        #: before and after to take the probe's share out.
        self.busy_s = 0.0
        self._kernel()  # touch everything once, outside any timed phase

    def _kernel(self) -> int:
        nodes, at, total = self._nodes, self._at, 0
        for i in self._order[at:at + _STEPS]:
            total += nodes[i]["a"]
        self._at = (at + _STEPS) % (_NODES - _STEPS)
        return total

    def _on_timer(self, _signum, _frame) -> None:
        t0 = perf_counter()
        self._kernel()
        took = perf_counter() - t0
        self.started.append(t0)
        self.took.append(took)
        self.busy_s += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speeds(self, t0: float, t1: float) -> Speeds:
        """The machine's speed over ``[t0, t1]``, window by window."""
        if not self.took:
            raise RuntimeError("speed probe took no sample; was it started?")
        mean = sum(NOMINAL_S / took for took in self.took) / len(self.took)
        count = max(1, int((t1 - t0) / WINDOW_S))
        sums, hits, busy = [0.0] * count, [0] * count, [0.0] * count
        for started, took in zip(self.started, self.took):
            window = min(count - 1, int((started - t0) / WINDOW_S))
            sums[window] += NOMINAL_S / took
            hits[window] += 1
            busy[window] += took
        # A window without a sample (one long C call can hold the signal
        # off) takes the mean.
        per_window = [s / n if n else mean for s, n in zip(sums, hits)]
        return Speeds(t0, t1, per_window, busy, mean)

#!/usr/bin/env python3
"""Where a benchmark workload's CPU goes: a stdlib stack sampler.

    python3 tools/sample_profile.py [--workload sim_single] [--seconds 15]

Builds one repetition of a ``bench/workloads.py`` workload at seed 42 as
the benchmark child does (``--seconds`` of the workload's days per second;
``bench/`` is only read), then runs it under a ``SIGPROF`` interval timer
(``setitimer(ITIMER_PROF)``, one tick per CPU millisecond of this process;
no other process is looked at).  Each tick records the Python stack that
was running, and the tool prints, for the top 25 functions, the **self**
share (samples whose innermost frame it was; time in C functions counts to
their Python caller) and the **inclusive** share (samples with it anywhere
on the stack, counted once each).  Unlike a deterministic profiler it adds no cost per call, so the
shares are those of the untraced run.

A frame of a generated ``__init__`` (a dataclass's ``<string>`` one, or a
``repro._values.slot_init`` one) has no file of its own; it is named after
the class of the instance it builds, e.g. ``StoredObject.__init__
(generated)``, and a namedtuple's generated ``__new__`` after its class.
"""

from __future__ import annotations

import argparse
import signal
import sys
from collections import Counter
from pathlib import Path
from types import FrameType

REPO = Path(__file__).resolve().parent.parent
SEED = 42
INTERVAL_S = 0.001
TOP = 25
sys.path[:0] = [str(REPO / "src"), str(REPO)]


def label(frame: FrameType) -> str:
    """``path:qualname`` of the function ``frame`` runs, or the class's
    ``__init__`` / namedtuple ``__new__`` for a generated one."""
    code = frame.f_code
    if code.co_filename.startswith("<"):
        local = frame.f_locals
        if code.co_name == "__init__" and "self" in local:
            return f"{type(local['self']).__qualname__}.__init__ (generated)"
        if isinstance(local.get("_cls"), type):
            return f"{local['_cls'].__qualname__}.__new__ (generated)"
    path = Path(code.co_filename)
    for root in (REPO / "src", REPO):
        if path.is_relative_to(root):
            path = path.relative_to(root)
            break
    return f"{path}:{getattr(code, 'co_qualname', code.co_name)}"


class Sampler:
    """Self and inclusive sample counts per function label."""

    def __init__(self) -> None:
        self.samples = 0
        self.self_counts: Counter[str] = Counter()
        self.inclusive: Counter[str] = Counter()
        self._labels: dict[object, str] = {}

    def _tick(self, signum: int, frame: FrameType | None) -> None:
        if frame is None:
            return
        self.samples += 1
        seen = set()
        innermost = True
        while frame is not None:
            code = frame.f_code
            name = self._labels.get(code)
            if name is None:
                name = label(frame)
                # A generated frame is named by its arguments, not its code.
                if not code.co_filename.startswith("<"):
                    self._labels[code] = name
            if innermost:
                self.self_counts[name] += 1
                innermost = False
            seen.add(name)
            frame = frame.f_back
        self.inclusive.update(seen)

    def run(self, fn, interval_s: float):
        """Call ``fn()`` with the timer on; returns what it returns."""
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, interval_s, interval_s)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def table(self, top: int) -> str:
        """The ``top`` functions by self share, then by inclusive share."""
        total = max(self.samples, 1)
        lines = [f"{self.samples} samples"]
        for title, counts in (("self", self.self_counts), ("inclusive", self.inclusive)):
            lines.append(f"\n{title:>9}  function")
            for name, n in counts.most_common(top):
                lines.append(f"{100.0 * n / total:8.1f}%  {name}")
        return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/sample_profile.py", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", default="sim_single")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="size of the run, in the benchmark's --seconds")
    args = parser.parse_args(argv)

    from bench.workloads import WORKLOADS
    from repro.core.obj import reset_object_ids

    workload = WORKLOADS[args.workload]
    reset_object_ids()
    run = workload.build(SEED, workload.days_per_second * args.seconds)
    sampler = Sampler()
    sampler.run(run, INTERVAL_S)
    print(f"{args.workload} seed={SEED} seconds={args.seconds}: {sampler.table(TOP)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

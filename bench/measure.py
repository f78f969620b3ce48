"""One measurement = a few repetitions of the same seeded work, averaged.

Each repetition is a fresh, sequential child process (:mod:`bench.child`):
one OS process and one thread generate load at a time, ``jobs=1`` always.
(Two children side by side, one per vCPU, slowed each other by a third.)
The child reports its times at the quiet reference box's speed
(:mod:`bench.probe`); a measurement is the mean of :data:`REPS` of them
and ``setup_s`` is the median of :data:`SETUPS` set-ups.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from typing import Any

from bench import REPO
from bench.layers import END_TO_END, layer_metrics, validity

__all__ = ["BenchFailure", "REPS", "check_same_outcome", "measure", "measure_traced"]

#: Children averaged into one measurement: ``--seconds`` is the whole
#: measurement, so each child's timed phase is sized to ``seconds / REPS``.
REPS = 2
#: Set-ups whose median is ``setup_s`` (the repetitions' own, then probes).
SETUPS = 3
CHILD_TIMEOUT_S = 170


class BenchFailure(Exception):
    """A run produced wrong outputs (or none); the benchmark exits non-zero."""


def spawn_child(name: str, seed: int, seconds: float, *, trace: int = 0,
                setup_only: bool = False) -> dict[str, Any]:
    """Run one child to completion and return the JSON it printed last."""
    command = [
        sys.executable, "-m", "bench.child", "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        command.append("--setup-only")
    try:
        done = subprocess.run(
            command, cwd=REPO, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as expired:
        raise BenchFailure(f"{name}: child still running after {expired.timeout} s") from None
    if done.returncode != 0:
        raise BenchFailure(
            f"{name}: child exited {done.returncode}\n{done.stderr.strip()[-2000:]}"
        )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    if not setup_only:
        check_outputs(name, report)
    return report


def check_outputs(name: str, report: dict[str, Any]) -> None:
    broken = [text for text, holds in report["invariants"] if not holds]
    if broken:
        raise BenchFailure(f"{name}: invariant violated: {'; '.join(broken)}")
    if report["failed"]:
        raise BenchFailure(
            f"{name}: {report['failed']} of {report['attempted']} operations failed"
        )


def check_same_outcome(name: str, reports: list[dict[str, Any]]) -> None:
    """Every repetition (traced or not) must have produced the same outcome."""
    digests = {report["digest"] for report in reports}
    if len(digests) != 1:
        raise BenchFailure(f"{name}: outcome digests differ across runs: {sorted(digests)}")


def measure(name: str, seed: int, seconds: float) -> dict[str, Any]:
    """:data:`REPS` untraced children of ``seconds / REPS`` each, averaged."""
    reports = [spawn_child(name, seed, seconds / REPS) for _ in range(REPS)]
    check_same_outcome(name, reports)
    # Set-up ends before the probe starts, so each set-up is scaled by the
    # machine speed the repetition right after it (or just before it, for
    # the set-up-only children) measured: as clocked, setup_s drifted by a
    # third between two sets of ten runs.
    setups = [report["setup_s"] * report["speed"] for report in reports] + [
        spawn_child(name, seed, seconds / REPS, setup_only=True)["setup_s"]
        * reports[-1]["speed"]
        for _ in range(SETUPS - REPS)
    ]
    first = reports[0]
    return {
        **{
            metric: statistics.mean(report[metric] for report in reports)
            for metric in (*END_TO_END, "raw_wall_s", "speed")
        },
        "setup_s": statistics.median(setups),
        "attempted": first["attempted"],
        "failed": first["failed"],
        "digest": first["digest"],
        "facts": first["facts"],
        "counts": first["counts"],
    }


def measure_traced(name: str, seed: int, seconds: float, untraced: dict[str, Any] | None):
    """One traced child, checked against an ``untraced`` measurement of the
    same work (one twin child is run when there is none yet).

    Returns ``(per-layer values, validity checks, traced child report)``.
    """
    if untraced is None:
        untraced = spawn_child(name, seed, seconds / REPS)
    traced = spawn_child(name, seed, seconds / REPS, trace=1)
    check_same_outcome(name, [traced, untraced])
    return layer_metrics(traced, untraced["wall_s"]), validity(name, traced), traced

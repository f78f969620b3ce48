"""One repetition: ``python3 -m bench.child`` in a fresh process.

Set-up (interpreter start, ``import repro.api``, spec/store/workload
construction) ends at the entry-point call; ``wall_s``/``cpu_s`` bracket
the **whole** call; the outcome digest and invariants are computed after
the clocks and the RSS reading, so checking costs the metrics nothing.
A :class:`bench.probe.SpeedProbe` runs beside the call and every time is
reported at the quiet reference box's speed.  Prints one JSON object as
its last line; :mod:`bench.measure` averages the repetitions of one
measurement.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any

from bench import OUT_DIR, REPO
from bench.probe import SpeedProbe
from bench.trace import resolve



def clock_operations(
    site: str, probe: SpeedProbe, ended: list[float], latencies: list[float]
) -> None:
    """Clock every call of the class-level ``site`` from the caller's side.

    One interposer per workload, on in untraced runs too (one extra frame
    and two ``perf_counter`` reads per operation).  A coroutine method is
    awaited inside the clock, so a serve latency is submit → response.
    Any probe kernel that ran in between is taken out of the latency.
    """
    cls, attr, original = resolve(site)
    perf_counter = time.perf_counter

    if attr == "submit":  # GatewayService.submit is the one coroutine site

        async def clocked(*args, **kwargs):
            t0, busy0 = perf_counter(), probe.busy_s
            result = await original(*args, **kwargs)
            t1 = perf_counter()
            ended.append(t1)
            latencies.append(t1 - t0 - (probe.busy_s - busy0))
            return result

    else:

        def clocked(*args, **kwargs):
            t0, busy0 = perf_counter(), probe.busy_s
            result = original(*args, **kwargs)
            t1 = perf_counter()
            ended.append(t1)
            latencies.append(t1 - t0 - (probe.busy_s - busy0))
            return result

    setattr(cls, attr, clocked)


def collect_clusters(clusters: list) -> None:
    """Remember every ``BesteffsCluster`` built, for the per-unit invariants."""
    from repro.besteffs.cluster import BesteffsCluster

    original = BesteffsCluster.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        clusters.append(self)

    BesteffsCluster.__init__ = init


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending, non-empty list."""
    return sorted_values[round(q * (len(sorted_values) - 1))]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.time() just before the spawn")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the entry-point call (a set-up probe)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))
    from repro.core.obj import reset_object_ids

    from bench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    ended: list[float] = []
    latencies: list[float] = []
    clusters: list = []
    tracer = None
    if args.trace:
        from bench.trace import Tracer, install

        tracer = Tracer()
        install(tracer)
    collect_clusters(clusters)
    reset_object_ids()
    run = workload.build(args.seed, workload.days_per_second * args.seconds)
    if tracer is not None:
        # Root frame: time no named layer covers is other.self_s.
        run = tracer.wrap(run, "other")

    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # The probe is the benchmark's, not the program's: it is built after
    # set-up ends and its footprint is kept out of peak_rss_mib.
    rss_before_probe = peak_rss_mib()
    probe = SpeedProbe()
    probe_rss_mib = peak_rss_mib() - rss_before_probe
    # After the tracer, so the clock sits outside the traced wrapper and
    # reads what a caller of the traced program would.
    clock_operations(workload.latency_site, probe, ended, latencies)
    probe.start()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    result = run()
    t1 = time.perf_counter()
    cpu_raw_s = time.process_time() - cpu0
    probe.stop()
    rss_mib = peak_rss_mib() - probe_rss_mib
    table = tracer.table() if tracer is not None else None

    # Everything below is at the quiet reference box's speed (bench.probe).
    speeds = probe.speeds(t0, t1)
    wall_s = speeds.quiet_seconds()
    own_raw_s = t1 - t0 - probe.busy_s
    quiet = sorted(
        latency * speeds.at(end) for end, latency in zip(ended, latencies)
    )
    outcome = workload.outcome(result, len(latencies), clusters)
    report: dict[str, Any] = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (cpu_raw_s - probe.busy_s) * wall_s / own_raw_s,
        "ops_per_s": outcome.attempted / wall_s,
        "latency_p50_us": percentile(quiet, 0.50) * 1e6,
        "latency_p90_us": percentile(quiet, 0.90) * 1e6,
        "latency_p99_us": percentile(quiet, 0.99) * 1e6,
        "latency_max_us": quiet[-1] * 1e6,
        "peak_rss_mib": rss_mib,
        # What the clocks read, probe included, and the machine's mean speed.
        "raw_wall_s": t1 - t0,
        "speed": speeds.mean,
        "probe_samples": len(probe.took),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": outcome.digest,
        "facts": outcome.facts,
        "invariants": outcome.invariants,
        "counts": outcome.counts,
    }
    if tracer is not None:
        report["table"] = table
        report["spans"] = tracer.write_spans(
            OUT_DIR / f"trace_{workload.name}.jsonl",
            {"workload": workload.name, "seed": args.seed, "seconds": args.seconds},
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

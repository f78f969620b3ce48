"""``python3 -m bench`` — run the benchmark, or compare two result sets.

* ``python3 -m bench`` runs every workload (5 measurements and one traced
  run each; see :mod:`bench.measure` for what a measurement is), prints
  every metric by name with its unit, checks outputs, writes
  ``bench/out/result.json`` and exits non-zero on a correctness failure.
  ``--quick`` is the < 30 s smoke shape: ``--seconds 2 --reps 1``.
* ``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` is one
  run in the ``BENCHMARK.json`` contract: the last stdout line is
  ``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
  metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
* ``python3 -m bench compare A.json B.json`` applies the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

from bench import OUT_DIR, REPO
from bench.layers import END_TO_END, PER_LAYER
from bench.measure import REPS, BenchFailure, check_same_outcome, measure, measure_traced
from bench.workloads import WORKLOADS

DEFAULT_OUT = OUT_DIR / "result.json"
E2E_UNITS = {metric: unit for metric, (unit, _better) in END_TO_END.items()}
LAYER_UNITS = {metric.name: metric.unit for metric in PER_LAYER}


def print_layer_table(name: str, traced: dict[str, Any]) -> None:
    wall = traced["raw_wall_s"]
    print(f"-- {name}: traced layers ({wall:.3f} s traced wall as clocked, "
          f"{traced['spans']} sampled spans in bench/out/trace_{name}.jsonl)")
    print(f"  {'span':<30} {'calls':>9} {'total s':>9} {'self s':>9} "
          f"{'ns/op':>10} {'share':>7}")
    rows = sorted(traced["table"].items(), key=lambda item: -item[1]["self_s"])
    for span, row in rows:
        if not row["calls"]:
            continue
        print(f"  {span:<30} {row['calls']:>9} {row['total_s']:>9.3f} "
              f"{row['self_s']:>9.3f} {row['total_s'] / row['calls'] * 1e9:>10.0f} "
              f"{row['self_s'] / wall:>7.1%}")


def print_validity(name: str, checks: list[tuple[str, float, bool]]) -> bool:
    for text, value, holds in checks:
        print(f"  validity {name}: {text}: {value:.3f} {'ok' if holds else 'FAILED'}")
    return all(holds for _text, _value, holds in checks)


def print_values(values: dict[str, float], units: dict[str, str]) -> None:
    for metric, value in values.items():
        print(f"  {metric:<34} {value:>16.6f} {units[metric]}")


def print_report_wall(counts: dict[str, float]) -> None:
    if "report_wall_s" in counts:
        print(f"  (LoadGenReport.wall_seconds {counts['report_wall_s']:.3f} s, "
              f"ops_per_sec {counts['report_ops_per_s']:,.0f}: serve loop of the "
              f"slowest shard only; wall_s is what the caller waits)")


def contract_run(name: str, seed: int, seconds: float, trace: int) -> int:
    """One ``BENCHMARK.json`` run; the result object is the last line printed."""
    correct = True
    if trace:
        values, checks, report = measure_traced(name, seed, seconds, None)
        print(f"-- {name} seed={seed} seconds={seconds:g} digest={report['digest']}")
        print_layer_table(name, report)
        correct = print_validity(name, checks)
        units = LAYER_UNITS
    else:
        report = measure(name, seed, seconds)
        print(f"-- {name} seed={seed} seconds={seconds:g} digest={report['digest']}")
        print(f"  mean of {REPS} repetitions sized to {seconds / REPS:g} s; wall as "
              f"clocked {report['raw_wall_s']:.3f} s at machine speed {report['speed']:.2f}")
        print_report_wall(report["counts"])
        values = {metric: report[metric] for metric in END_TO_END}
        units = E2E_UNITS
    print_values(values, units)
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in values.items()
        },
    }))
    return 0 if correct else 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def full_run(seed: int, seconds: float, reps: int, out: Path, *, smoke: bool) -> int:
    """Every workload: ``reps`` measurements, then one traced run.

    A ``smoke`` run is too short to reach the regimes the validity
    assertions describe, so it reports them without failing on them.
    """
    result: dict[str, Any] = {
        "schema": "repro-bench/1", "seed": seed, "seconds": seconds, "reps": reps,
        "workloads": {},
    }
    ok = True
    for name, workload in WORKLOADS.items():
        runs = [measure(name, seed, seconds) for _ in range(reps)]
        check_same_outcome(name, runs)
        # The traced run is set against the median untraced measurement.
        typical = {**runs[0], "wall_s": statistics.median(run["wall_s"] for run in runs)}
        values, checks, traced = measure_traced(name, seed, seconds, typical)
        first = runs[0]
        print(f"== {name}: {first['attempted']} operations, {first['failed']} failed, "
              f"digest {first['digest']}")
        print(f"   why: {workload.why}")
        end_to_end = {}
        for metric, unit in E2E_UNITS.items():
            samples = [run[metric] for run in runs]
            q1, median, q3 = quartiles(samples)
            end_to_end[metric] = {
                "unit": unit, "values": samples, "median": median, "q1": q1, "q3": q3,
            }
            print(f"  {metric:<34} {median:>16.6f} {unit:<5} "
                  f"[q1 {q1:.6f}, q3 {q3:.6f}; spread {(q3 - q1) / median:.1%}]")
        raw_wall_s = statistics.median(run["raw_wall_s"] for run in runs)
        speed = statistics.median(run["speed"] for run in runs)
        print(f"  (wall as clocked {raw_wall_s:.3f} s at machine speed {speed:.2f})")
        print_report_wall(first["counts"])
        print_layer_table(name, traced)
        ok = (print_validity(name, checks) or smoke) and ok
        print_values(values, LAYER_UNITS)
        result["workloads"][name] = {
            "why": workload.why,
            "digest": first["digest"],
            "facts": first["facts"],
            "attempted": first["attempted"],
            "failed": first["failed"],
            "failed_share": first["failed"] / first["attempted"],
            "raw_wall_s": raw_wall_s,
            "end_to_end": end_to_end,
            "per_layer": {
                metric: {"unit": LAYER_UNITS[metric], "value": value}
                for metric, value in values.items()
            },
            "validity": [
                {"assertion": text, "value": value, "ok": holds}
                for text, value, holds in checks
            ],
        }
    # This benchmark defines the ledger; it claims no gain.
    result["claim"] = None
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    print('"claim": null')
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (REPO / "src" / "repro").is_dir():
        print("bench: src/repro not found: nothing to measure", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        from bench.compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        help="run this workload once (BENCHMARK.json contract)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long one measurement measures: each child's timed "
                             f"phase is sized to 1/{REPS} of it (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5,
                        help="measurements per workload in a full run (default 5)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke shape: --seconds 2 --reps 1, validity not enforced")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.reps < 1:
        parser.error("--seconds must be > 0 and --reps >= 1")
    if args.quick:
        args.seconds, args.reps = 2.0, 1
    try:
        if args.workload:
            return contract_run(args.workload, args.seed, args.seconds, args.trace)
        return full_run(args.seed, args.seconds, args.reps, args.out, smoke=args.quick)
    except BenchFailure as failure:
        print(f"bench: FAILED: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, judged by the §8 rule.

    python3 tools/bench_ab.py PARENT_REV [--workload W] [--pairs N] [--seed S] [--quick] [--layers]

Extracts the committed files of ``PARENT_REV`` into a temporary directory
(``git archive``: nothing is registered in ``.git``, and the parent runs
from its own ``bench/`` and ``src/``), then runs

    python3 -m bench --workload W --seed S --seconds 15 --trace 0

there and in this checkout (the working tree as it stands), ``N`` pairs,
alternating which side goes first.  Per end-to-end metric it prints each
side's median and quartiles, how many pairs the change won, and a verdict
by the choosing-metrics §8 rule with the bounds ``BENCHMARK.json`` fixes:

* ``gain`` — at least ten pairs were run, the change wins at least 9/10
  of them (ties count for neither) and the medians are further apart than
  the parent's own quartile spread;
* ``regression`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — the parent's quartile spread exceeds the bound, so the
  runs cannot show "unchanged" (unless every change run reads better
  than every parent run);
* ``same`` — otherwise.

``--layers`` adds, after the untraced pairs of each workload, one traced
pair (``--trace 1`` on both sides) and prints every per-layer row as
parent | change with its delta — where the saving appeared.  Counts repeat
exactly for a seed and size (choosing-metrics §8), so a **count** row that
differs at all is marked ``!=``; a time row is marked ``*`` when it moved
more than 10 % (and is at least a millisecond on one side: below that the
tracer's own clock reads are the row).

Exit status is 1 on a regression, a digest mismatch, a failed run or more
failed operations on the change side; with ``--layers`` also when the
change's traced run fails (a ``bench/trace.py`` target that no longer
resolves), when either side's traced run hashes to another digest than
that side's untraced runs (tracing must not move an outcome; a change may
move its digest on purpose), or when the change's traced run is not
``correct`` (a validity check flipped).  ``--quick`` is the smoke shape
(``--seconds 2``): it exercises the tool, not the program — too short to
reach the regimes the validity checks describe, so it reports them
without enforcing them, as ``python3 -m bench --quick`` does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: choosing-metrics §8: fewer pairs than this can show a regression, not a gain.
MIN_PAIRS_FOR_A_CLAIM = 10


def extract(rev: str, into: Path) -> None:
    """The committed files of ``rev``, as the driver checks them out."""
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``BENCHMARK.json`` contract run: its result object plus the digest.

    A run failed when it printed no result object; one that printed
    ``"correct": false`` (a traced run's validity check) is returned.
    """
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"bench failed in {checkout}:\n{done.stdout}{done.stderr}") from None
    result["digest"] = lines[0].rpartition("digest=")[2]
    result["validity"] = [line.strip() for line in lines if line.startswith("  validity ")]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(parent: list[float], change: list[float], better: str, bound: float):
    """``(wins, decided pairs, verdict)`` for one metric's paired samples."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    decided = sum(c != p for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    worse_by = sign * (c_med - p_med) / p_med
    if (
        len(parent) >= MIN_PAIRS_FOR_A_CLAIM
        and wins >= 0.9 * len(parent)
        and abs(c_med - p_med) > p_q3 - p_q1
    ):
        return wins, decided, "gain"
    if (p_q3 - p_q1) / p_med > bound:
        all_better = max(sign * c for c in change) < min(sign * p for p in parent)
        return wins, decided, "same" if all_better else "unresolved"
    return wins, decided, "regression" if worse_by > bound else "same"


#: A traced time row is marked when it moved by more than this share ...
LAYER_MOVED = 0.10
#: ... and reads at least this many seconds (or microseconds) on one side.
LAYER_FLOOR = {"s": 1e-3, "us": 1.0, "ratio": 0.0}


def compare_layers(
    workload: str, parent_dir: Path, args: argparse.Namespace, seconds: float,
    untraced_digests: dict[str, set[str]],
) -> bool:
    """One traced pair: every per-layer row as parent | change.

    ``untraced_digests`` maps each side to the digests of its untraced
    runs; each traced run must hash to its own side's one digest."""
    parent = run_once(parent_dir, workload, args.seed, seconds, trace=1)
    change = run_once(REPO, workload, args.seed, seconds, trace=1)
    print(f"-- {workload} traced pair (--trace 1; parent | change), times carry the "
          "tracer's overhead")
    print(f"  {'layer metric':<34} {'parent':>14} {'change':>14} {'delta':>8}")
    differ = moved = 0
    for name, row in change["metrics"].items():
        p, c, unit = parent["metrics"][name]["value"], row["value"], row["unit"]
        delta = "=" if c == p else f"{(c - p) / p:+.1%}" if p else "new"
        mark = ""
        if unit == "count":
            if c != p:
                differ, mark = differ + 1, "!="
        elif abs(c - p) > LAYER_MOVED * abs(p) and max(p, c) >= LAYER_FLOOR[unit]:
            moved, mark = moved + 1, "*"
        print(f"  {name:<34} {p:>14.6g} {c:>14.6g} {delta:>8} {mark}")
    same_digest = True
    for side, run in (("parent", parent), ("change", change)):
        equal = untraced_digests[side] == {run["digest"]}
        same_digest = same_digest and equal
        print(f"  {side} traced digest {run['digest']} {'equal to' if equal else 'DIFFERS from'} "
              f"its untraced runs' {sorted(untraced_digests[side])}")
    enforced = "" if not args.quick else " (not enforced: --quick)"
    print(f"  {differ} count row(s) differ (!=), {moved} time row(s) moved more than "
          f"{LAYER_MOVED:.0%} (*)")
    for side, run in (("parent", parent), ("change", change)):
        for line in run["validity"]:
            print(f"  {side}: {line}")
    print(f"  change validity {'ok' if change['correct'] else 'FAILED'}{enforced}")
    return same_digest and (change["correct"] or args.quick)


def compare(workload: str, parent_dir: Path, args: argparse.Namespace, metrics) -> bool:
    seconds = 2.0 if args.quick else 15.0
    sides = {"parent": parent_dir, "change": REPO}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], workload, args.seed, seconds))
        p, c = runs["parent"][-1], runs["change"][-1]
        print(f"  pair {pair + 1:>2} ({order[0]} first): wall_s "
              f"{p['metrics']['wall_s']['value']:.3f} | {c['metrics']['wall_s']['value']:.3f}",
              flush=True)
    digests = {side: {run["digest"] for run in runs[side]} for side in runs}
    same_digest = len(digests["parent"] | digests["change"]) == 1
    failed = {side: max(run["failed"] for run in runs[side]) for side in runs}
    ok = same_digest and failed["change"] <= failed["parent"] and all(
        run["correct"] for side in runs for run in runs[side]
    )
    print(f"== {workload} seed={args.seed} seconds={seconds:g} pairs={args.pairs} "
          f"(parent {args.parent_rev} | change: this checkout)")
    print(f"  digest {'equal' if same_digest else 'MISMATCH'}: "
          f"{sorted(digests['parent'])} | {sorted(digests['change'])}")
    print(f"  failed operations {failed['parent']} | {failed['change']}")
    print(f"  {'metric':<15} {'parent q1/median/q3':>32} {'change q1/median/q3':>32} "
          f"{'change':>8} {'wins':>6}  verdict")
    for metric in metrics:
        name = metric["name"]
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        wins, decided, verdict = judge(parent, change, metric["better"], metric["bound"])
        ok = ok and verdict != "regression"
        p_q, c_q = quartiles(parent), quartiles(change)
        print(f"  {name:<15} {'/'.join(f'{v:.4g}' for v in p_q):>32} "
              f"{'/'.join(f'{v:.4g}' for v in c_q):>32} "
              f"{(c_q[1] - p_q[1]) / p_q[1]:>+8.1%} {wins:>3}/{decided:<2}  {verdict}")
        print(f"    {name} per pair: "
              + " ".join(f"{p:.4g}|{c:.4g}" for p, c in zip(parent, change)))
    if args.layers:
        ok = compare_layers(workload, parent_dir, args, seconds, digests) and ok
    return ok


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_rev", help="git revision the change is measured against")
    parser.add_argument("--workload", choices=workloads, action="append",
                        help="repeatable; default: every BENCHMARK.json workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--quick", action="store_true", help="--seconds 2 smoke shape")
    parser.add_argument("--layers", action="store_true",
                        help="then one traced pair per workload: per-layer parent | change")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        extract(args.parent_rev, Path(tmp))
        for workload in args.workload or workloads:
            ok = compare(workload, Path(tmp), args, spec["end_to_end"]) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

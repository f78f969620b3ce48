"""``python3 -m bench compare A.json B.json`` — do two result sets agree?

``A`` is the parent (or the first set of runs), ``B`` the change (or the
second).  One row per workload × end-to-end metric, judged by the bound
``BENCHMARK.json`` fixes for that metric (choosing-metrics §6.5):

* ``regression`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the quartile spread of either side exceeds the bound,
  so the runs cannot show "unchanged" (unless every B run beats every A
  run, which is ``ok``);
* ``ok`` — otherwise.

Exits 1 on any regression, on more failed operations in B, or when the
outcome digests of a workload differ; 2 when the files are not comparable
(different seed or ``--seconds``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from bench import REPO

BENCHMARK_JSON = REPO / "BENCHMARK.json"


def judge(a: dict[str, Any], b: dict[str, Any], better: str, bound: float):
    """``(worse_by, spread, verdict)`` for one metric's two sample sets."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((side["q3"] - side["q1"]) / side["median"] for side in (a, b))
    if spread > bound:
        if better == "lower":
            b_beats_a = max(b["values"]) < min(a["values"])
        else:
            b_beats_a = min(b["values"]) > max(a["values"])
        return worse_by, spread, "ok" if b_beats_a else "unresolved"
    return worse_by, spread, "regression" if worse_by > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 -m bench compare A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    if (a["seed"], a["seconds"]) != (b["seed"], b["seconds"]):
        print(f"not comparable: seed/seconds {a['seed']}/{a['seconds']} vs "
              f"{b['seed']}/{b['seconds']}", file=sys.stderr)
        return 2
    bounds = {
        metric["name"]: (metric["better"], metric["bound"])
        for metric in json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))["end_to_end"]
    }
    bad = 0
    print(f"{'workload':<15} {'metric':<15} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name:<15} missing from B")
            bad += 1
            continue
        for metric, (better, bound) in bounds.items():
            ma, mb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            worse_by, spread, verdict = judge(ma, mb, better, bound)
            bad += verdict == "regression"
            print(f"{name:<15} {metric:<15} {ma['median']:>12.4f} {mb['median']:>12.4f} "
                  f"{worse_by:>+9.1%} {spread:>7.1%} {bound:>6.0%}  {verdict}")
        failed = "ok" if wb["failed"] <= wa["failed"] else "regression"
        digest = "ok" if wa["digest"] == wb["digest"] else "MISMATCH"
        bad += (failed != "ok") + (digest != "ok")
        print(f"{name:<15} {'failed':<15} {wa['failed']:>12} {wb['failed']:>12} "
              f"{'':>9} {'':>7} {'any':>6}  {failed}")
        print(f"{name:<15} {'digest':<15} {wa['digest'][:12]:>12} {wb['digest'][:12]:>12} "
              f"{'':>9} {'':>7} {'':>6}  {digest}")
    print("agree" if not bad else f"{bad} row(s) failed")
    return 1 if bad else 0

"""Smoke test of the benchmark itself: ``pytest bench/`` (not tier-1).

Runs ``python3 -m bench --quick`` once (< 30 s) and validates the result
schema and the metric ledger against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from bench import OUT_DIR, REPO
from bench.layers import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def result() -> dict:
    out = OUT_DIR / "smoke.json"
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--quick", "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert done.stdout.rstrip().endswith('"claim": null')
    return json.loads(out.read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_ledger() -> None:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]


def test_ledger_limits_and_predictions() -> None:
    names = [*WORKLOADS, *END_TO_END, *(m.name for m in PER_LAYER)]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(WORKLOADS) <= 8 and len(END_TO_END) <= 16 and len(PER_LAYER) <= 128
    assert "setup_s" in END_TO_END
    for workload in WORKLOADS.values():
        assert workload.why.strip() and "\n" not in workload.why and len(workload.why) <= 200
    for metric in PER_LAYER:
        # Every per-layer metric names what it should move, and where.
        assert metric.moves, metric.name
        for moved, workload in metric.moves:
            assert moved in END_TO_END, metric.name
            assert workload == "*" or workload in WORKLOADS, metric.name


def test_quick_run_result_schema(result: dict) -> None:
    assert list(result)[-1] == "claim" and result["claim"] is None
    assert set(result["workloads"]) == set(WORKLOADS)
    for name, entry in result["workloads"].items():
        assert entry["why"] == WORKLOADS[name].why
        assert re.fullmatch(r"[0-9a-f]{64}", entry["digest"])
        assert entry["attempted"] >= 1 and entry["failed"] == 0
        assert set(entry["end_to_end"]) == set(END_TO_END)
        for metric, stats in entry["end_to_end"].items():
            assert stats["unit"] == END_TO_END[metric][0]
            assert stats["median"] > 0, (name, metric)
        assert list(entry["per_layer"]) == [m.name for m in PER_LAYER]
        # Too short to reach the regimes the assertions describe: shape only.
        assert entry["validity"]
        for check in entry["validity"]:
            assert set(check) == {"assertion", "value", "ok"}

"""``tools/bench_ab.py``: each side's traced run must hash to that side's
untraced digest, whether or not the change moved it; a ``--quick`` pair
reports a timing regression without failing; both trees are byte-compiled
before the first run; and a stopped tool leaves no run behind."""

import argparse
import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", REPO / "tools" / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_pair(bench_ab, monkeypatch, parent_digest, change_digest, untraced):
    """Run ``compare_layers`` on canned traced results: no benchmark runs."""

    def run_once(checkout, workload, seed, seconds, trace=0):
        assert trace == 1
        digest = change_digest if checkout == bench_ab.REPO else parent_digest
        metrics = {"store.offer_calls": {"value": 10, "unit": "count"}}
        return {"digest": digest, "metrics": metrics, "validity": [], "correct": True}

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    args = argparse.Namespace(seed=42, quick=False)
    return bench_ab.compare_layers("sim_single", Path("parent"), args, 15.0, untraced)


def test_a_change_that_moves_its_digest_on_purpose_passes(bench_ab, monkeypatch, capsys):
    untraced = {"parent": {"aaaa"}, "change": {"bbbb"}}
    assert traced_pair(bench_ab, monkeypatch, "aaaa", "bbbb", untraced)
    out = capsys.readouterr().out
    assert "parent traced digest aaaa equal to" in out
    assert "change traced digest bbbb equal to" in out


def test_a_traced_digest_that_differs_from_its_side_fails(bench_ab, monkeypatch, capsys):
    untraced = {"parent": {"aaaa"}, "change": {"aaaa"}}
    assert not traced_pair(bench_ab, monkeypatch, "aaaa", "cccc", untraced)
    assert "change traced digest cccc DIFFERS from its untraced runs' ['aaaa']" in (
        capsys.readouterr().out
    )
    assert not traced_pair(bench_ab, monkeypatch, "cccc", "aaaa", untraced)


def test_untraced_runs_that_disagree_fail_the_traced_check(bench_ab, monkeypatch):
    untraced = {"parent": {"aaaa"}, "change": {"bbbb", "cccc"}}
    assert not traced_pair(bench_ab, monkeypatch, "aaaa", "bbbb", untraced)


def untraced_pair(bench_ab, monkeypatch, *, quick, change_s=2.0, change_digest="aaaa",
                  change_failed=0):
    """Run ``compare`` on one canned untraced pair: no benchmark runs."""

    def run_once(checkout, workload, seed, seconds, trace=0):
        change = checkout == bench_ab.REPO
        return {
            "digest": change_digest if change else "aaaa",
            "metrics": {"wall_s": {"value": change_s if change else 1.0}},
            "failed": change_failed if change else 0,
            "correct": True,
        }

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    args = argparse.Namespace(seed=42, quick=quick, pairs=1, parent_rev="HEAD", layers=False)
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
    return bench_ab.compare("sim_single", Path("parent"), args, metrics)


def test_a_quick_pair_reports_a_timing_regression_without_failing(
    bench_ab, monkeypatch, capsys
):
    # One 2 s pair times nothing: its regression is printed, not enforced.
    assert untraced_pair(bench_ab, monkeypatch, quick=True)
    assert "regression (not enforced: --quick)" in capsys.readouterr().out
    assert not untraced_pair(bench_ab, monkeypatch, quick=False)
    # What --quick does check still fails it.
    assert not untraced_pair(bench_ab, monkeypatch, quick=True, change_digest="bbbb")
    assert not untraced_pair(bench_ab, monkeypatch, quick=True, change_failed=1)


def test_prepare_byte_compiles_the_extracted_tree(bench_ab, monkeypatch, tmp_path):
    def extract(rev, into):
        for part in ("src/repro", "bench"):
            (into / part).mkdir(parents=True)
        (into / "src" / "repro" / "api.py").write_text("NAMES = ()\n")
        (into / "bench" / "__main__.py").write_text("print()\n")

    monkeypatch.setattr(bench_ab, "extract", extract)
    monkeypatch.setattr(bench_ab, "REPO", tmp_path / "checkout")
    extract("HEAD", tmp_path / "checkout")
    bench_ab.prepare("HEAD", tmp_path / "parent")
    for tree in ("parent", "checkout"):
        assert list((tmp_path / tree / "src" / "repro" / "__pycache__").glob("api.*.pyc"))
        assert list((tmp_path / tree / "bench" / "__pycache__").glob("__main__.*.pyc"))


def _alive(pid):
    """Whether ``pid`` runs (a zombie nobody reaped yet does not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    stat = Path(f"/proc/{pid}/stat")
    return not stat.exists() or stat.read_text().rpartition(")")[2].split()[0] != "Z"


def test_stopping_the_tool_stops_its_run_and_the_runs_children(tmp_path):
    # A stub ``python -m bench`` that starts a sleeping child, the way the
    # benchmark starts ``bench.child``, and sleeps itself.
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "__main__.py").write_text(
        "import os, pathlib, subprocess, sys, time\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"pathlib.Path({str(tmp_path / 'pids')!r}).write_text(f'{{os.getpid()}} {{child.pid}}')\n"
        "time.sleep(60)\n"
    )
    driver = (
        "import importlib.util, signal, sys\n"
        f"spec = importlib.util.spec_from_file_location('bench_ab', {str(REPO / 'tools' / 'bench_ab.py')!r})\n"
        "tool = importlib.util.module_from_spec(spec); spec.loader.exec_module(tool)\n"
        "signal.signal(signal.SIGTERM, tool._stop)\n"
        f"tool.run_once(tool.Path({str(tmp_path)!r}), 'w', 1, 1.0)\n"
    )
    tool = subprocess.Popen([sys.executable, "-c", driver])
    pids = tmp_path / "pids"
    deadline = time.monotonic() + 30
    while not pids.exists() or len(pids.read_text().split()) < 2:
        assert time.monotonic() < deadline and tool.poll() is None, "the stub never started"
        time.sleep(0.05)
    stub_pids = [int(pid) for pid in pids.read_text().split()]
    try:
        assert all(map(_alive, stub_pids))
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=30) == 128 + signal.SIGTERM
        deadline = time.monotonic() + 10
        while any(map(_alive, stub_pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, stub_pids))
    finally:  # a failing run leaves nothing behind either
        for pid in filter(_alive, stub_pids):
            os.kill(pid, signal.SIGKILL)

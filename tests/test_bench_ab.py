"""``tools/bench_ab.py``'s traced-pair check: each side's traced run must
hash to that side's untraced digest, whether or not the change moved it."""

import argparse
import importlib.util
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

"""The importance index must not move a single artifact byte.

Runs the two quantitative anchor experiments (fig6 density feedback, sec53
university projection) twice in-process — once with every store built on
the full-scan oracles of :mod:`tests.oracles` and once as shipped — and
compares the artifact sha256 over the rendered report, CSV headers and the
full-precision rows.  Together with the jobs-parity determinism suite this
pins the acceptance criterion: indexed and naive artifacts are
byte-identical.
"""

import hashlib

import pytest

import repro.core.store as store_module
from repro.core.index import ImportanceIndex
from repro.experiments.registry import csv_table
from repro.sim.parallel import RunSpec, execute_spec
from tests.oracles import ScanIndex, ScanSlab

SPECS = [
    RunSpec("fig6", seed=7, horizon_days=40.0),
    RunSpec("sec53", seed=11, horizon_days=30.0),
]


def _artifact_sha(outcome):
    headers, rows = csv_table(outcome.spec.experiment, outcome.result)
    digest = hashlib.sha256()
    digest.update(outcome.rendered.encode())
    digest.update("|".join(headers).encode())
    for row in rows:
        digest.update(repr(row).encode())
    return digest.hexdigest()


def _real_index_must_not_serve(*_args, **_kwargs):
    raise AssertionError("the real index booked a resident during the oracle run")


def _run(spec):
    outcome = execute_spec(spec)
    assert outcome.ok, outcome.error
    return outcome


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.experiment)
def test_indexed_artifacts_match_the_naive_oracle(spec, monkeypatch):
    indexed = _run(spec)
    # Every unit the experiment builds now books its residents in the scans.
    monkeypatch.setattr(store_module, "ImportanceIndex", ScanIndex)
    monkeypatch.setattr(store_module, "ResidentSlab", ScanSlab)
    monkeypatch.setattr(ImportanceIndex, "add", _real_index_must_not_serve)
    naive = _run(spec)
    assert _artifact_sha(naive) == _artifact_sha(indexed)

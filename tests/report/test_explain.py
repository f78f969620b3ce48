"""Tests for repro.report.explain: timelines reconstructed from ledgers."""

import pytest

from repro import obs
from repro.core.importance import TwoStepImportance
from repro.core.obj import StoredObject
from repro.core import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.errors import ReproError
from repro.obs.audit import AuditLedger
from repro.report.explain import (
    discover_ledger_files,
    explain_object,
    ledger_for,
    list_objects,
    load_run_ledgers,
    render_timeline,
    timeline_for,
)


@pytest.fixture(autouse=True)
def _fresh_obs_state():
    obs.reset()
    yield
    obs.reset()


def _obj(object_id, *, size, t_arrival=0.0, p=1.0, persist_days=30.0):
    return StoredObject(
        size=size,
        t_arrival=t_arrival,
        lifetime=TwoStepImportance(
            p=p, t_persist=persist_days * 1440.0, t_wane=1440.0
        ),
        object_id=object_id,
    )


def _audited_contested_store():
    """A tiny store driven to produce admit, evict and reject records."""
    obs.enable(audit=AuditLedger())
    store = StorageUnit(1000, TemporalImportancePolicy(), name="unit-a")
    store.offer(_obj("keeper", size=600, p=0.9), 0.0)
    store.offer(_obj("filler", size=400, p=0.2), 1.0)
    # Preempts "filler" (0.2) but not "keeper" (0.9).
    store.offer(_obj("strong", size=400, p=0.8), 2.0)
    # Loses against everything resident.
    store.offer(_obj("weak", size=400, p=0.1), 3.0)
    return obs.STATE.audit


class TestTimelines:
    def test_evicted_object_timeline(self):
        ledger = _audited_contested_store()
        timeline = timeline_for(ledger, "filler")
        assert timeline.outcome == "evict"
        assert [r.action for r in timeline.records] == ["admit", "evict"]
        evict = timeline.final
        assert evict.preempted_by == "strong"
        assert evict.threshold == 0.8  # the preemptor's incoming importance

    def test_rejected_object_timeline(self):
        ledger = _audited_contested_store()
        timeline = timeline_for(ledger, "weak")
        assert timeline.outcome == "reject"
        reject = timeline.final
        assert reject.importance == 0.1
        assert reject.threshold is not None  # the blocking importance

    def test_resident_object_timeline(self):
        ledger = _audited_contested_store()
        assert timeline_for(ledger, "keeper").outcome == "resident"

    def test_render_contains_bitexact_thresholds(self):
        ledger = _audited_contested_store()
        text = render_timeline(timeline_for(ledger, "filler"))
        evict = ledger.records_for("filler")[-1]
        assert f"incoming={evict.threshold!r}" in text
        assert "preempted by strong" in text
        assert "achieved lifetime" in text

    def test_render_admit_lists_displaced_victims(self):
        ledger = _audited_contested_store()
        text = render_timeline(timeline_for(ledger, "strong"))
        assert "displaced: filler" in text

    def test_unknown_object_raises(self):
        ledger = _audited_contested_store()
        with pytest.raises(ReproError, match="no audit records"):
            timeline_for(ledger, "nope")

    def test_explain_object_is_render_of_timeline(self):
        ledger = _audited_contested_store()
        assert explain_object(ledger, "weak").startswith("object weak")

    def test_list_objects_ranks_contested_first(self):
        ledger = _audited_contested_store()
        listing = list_objects({"run/unit-a-audit.jsonl": ledger}, limit=10)
        lines = listing.splitlines()
        # "weak" (rejected) sorts ahead of the untouched resident "keeper".
        assert lines[1].split()[0] == "weak"
        assert lines[1].endswith("in unit-a-audit.jsonl")
        assert "keeper" in lines[-1] or any("keeper" in ln for ln in lines)

    def test_list_objects_respects_limit(self):
        ledger = _audited_contested_store()
        listing = list_objects({"unit-a-audit.jsonl": ledger}, limit=1)
        assert len(listing.splitlines()) == 2  # header + one object


class TestDiscovery:
    def _write(self, path, ledger):
        with open(path, "w", encoding="utf-8") as fh:
            ledger.write_jsonl(fh)

    def test_single_file(self, tmp_path):
        ledger = _audited_contested_store()
        target = tmp_path / "run-audit.jsonl"
        self._write(target, ledger)
        assert discover_ledger_files(str(target)) == [str(target)]
        (loaded,) = load_run_ledgers(str(target)).values()
        assert len(loaded) == len(ledger)

    def test_directory_skips_merged(self, tmp_path):
        ledger = _audited_contested_store()
        self._write(tmp_path / "audit-a.jsonl", ledger)
        self._write(tmp_path / "audit-merged.jsonl", ledger)
        files = discover_ledger_files(str(tmp_path))
        assert files == [str(tmp_path / "audit-a.jsonl")]

    def test_directory_keeps_one_ledger_per_spec(self, tmp_path):
        ledger = _audited_contested_store()
        self._write(tmp_path / "audit-a.jsonl", ledger)
        self._write(tmp_path / "audit-b.jsonl", ledger)
        loaded = load_run_ledgers(str(tmp_path))
        assert list(loaded) == [str(tmp_path / "audit-a.jsonl"), str(tmp_path / "audit-b.jsonl")]
        assert [len(one) for one in loaded.values()] == [len(ledger)] * 2

    def test_an_id_in_two_ledgers_is_refused(self, tmp_path):
        ledger = _audited_contested_store()
        ledgers = {"audit-a.jsonl": ledger, "audit-b.jsonl": AuditLedger()}
        assert ledger_for(ledgers, "weak") is ledger
        ledgers["audit-b.jsonl"] = ledger
        with pytest.raises(ReproError, match="audit-a.jsonl, audit-b.jsonl"):
            ledger_for(ledgers, "weak")

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no audit ledgers"):
            discover_ledger_files(str(tmp_path))

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(ReproError):
            discover_ledger_files(str(tmp_path / "missing"))

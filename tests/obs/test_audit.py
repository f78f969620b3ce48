"""Unit tests for the decision-provenance ledger (repro.obs.audit)."""

import io
import pickle

import pytest

from repro.core.importance import TwoStepImportance
from repro.core.obj import StoredObject
from repro.obs.audit import ACTIONS, AuditLedger, AuditRecord


def _obj(object_id="obj-a", t_arrival=0.0, lifetime_days=1.0, size=100):
    return StoredObject(
        size=size,
        t_arrival=t_arrival,
        lifetime=TwoStepImportance(
            p=1.0, t_persist=lifetime_days * 1440.0, t_wane=0.0
        ),
        object_id=object_id,
    )


class TestRecord:
    def test_records_decision_context(self):
        ledger = AuditLedger()
        ok = ledger.record(
            "reject",
            t=5.0,
            obj=_obj(),
            unit="disk",
            importance=0.75,
            threshold=0.9,
            occupancy=0.5,
            reason="full-for-importance",
        )
        assert ok
        (record,) = list(ledger)
        assert record.action == "reject"
        assert record.object_id == "obj-a"
        assert record.importance == 0.75
        assert record.threshold == 0.9
        assert record.occupancy == 0.5
        assert record.size == 100
        assert record.t_expire == 1440.0

    def test_sequence_numbers_are_monotonic(self):
        ledger = AuditLedger()
        for i in range(5):
            ledger.record("admit", t=float(i), obj=_obj(f"obj-{i}"), unit="d", importance=1.0)
        assert [r.seq for r in ledger] == list(range(5))

    def test_unknown_action_rejected(self):
        ledger = AuditLedger()
        with pytest.raises(ValueError):
            ledger.record("vanish", t=0.0, obj=_obj(), unit="d", importance=1.0)

    def test_actions_tuple_is_the_contract(self):
        assert ACTIONS == ("admit", "reject", "evict", "expire", "refresh")


class TestSampling:
    def test_sample_one_keeps_everything(self):
        ledger = AuditLedger(sample=1.0)
        assert all(ledger.wants(f"obj-{i}") for i in range(100))

    def test_tiny_sample_keeps_almost_nothing(self):
        ledger = AuditLedger(sample=1e-6)
        kept = sum(ledger.wants(f"obj-{i:06d}") for i in range(500))
        assert kept <= 1

    def test_sampling_is_deterministic_per_id(self):
        a = AuditLedger(sample=0.3)
        b = AuditLedger(sample=0.3)
        ids = [f"obj-{i:06d}" for i in range(500)]
        assert [a.wants(i) for i in ids] == [b.wants(i) for i in ids]
        kept = sum(a.wants(i) for i in ids)
        assert 0 < kept < 500  # neither degenerate extreme

    def test_sampled_object_keeps_complete_timeline(self):
        # All-or-nothing per id: if the admit was kept, the evict is too.
        ledger = AuditLedger(sample=0.5)
        for i in range(200):
            oid = f"obj-{i:06d}"
            obj = _obj(oid)
            ledger.record("admit", t=0.0, obj=obj, unit="d", importance=1.0)
            ledger.record("evict", t=9.0, obj=obj, unit="d", importance=0.0)
        for oid in ledger.object_ids():
            assert len(ledger.records_for(oid)) == 2

    def test_invalid_sample_rejected(self):
        for bad in (1.5, 0.0, -0.1):
            with pytest.raises(ValueError):
                AuditLedger(sample=bad)


class TestRingBuffer:
    def test_oldest_records_dropped_and_counted(self):
        ledger = AuditLedger(max_records=3)
        for i in range(5):
            ledger.record("admit", t=float(i), obj=_obj(f"obj-{i}"), unit="d", importance=1.0)
        assert len(ledger) == 3
        assert ledger.dropped == 2
        assert [r.object_id for r in ledger] == ["obj-2", "obj-3", "obj-4"]

    def test_invalid_max_records_rejected(self):
        with pytest.raises(ValueError):
            AuditLedger(max_records=0)


class TestMergeAndSerialisation:
    def _filled(self, prefix, n):
        ledger = AuditLedger()
        for i in range(n):
            ledger.record(
                "admit", t=float(i), obj=_obj(f"{prefix}-{i}"), unit="d", importance=1.0
            )
        return ledger

    def test_merge_preserves_submission_order_and_resequences(self):
        a = self._filled("a", 2)
        b = self._filled("b", 3)
        a.merge(b)
        assert [r.object_id for r in a] == ["a-0", "a-1", "b-0", "b-1", "b-2"]
        assert [r.seq for r in a] == list(range(5))

    def test_merge_accumulates_dropped(self):
        a = AuditLedger(max_records=1)
        b = AuditLedger(max_records=1)
        for ledger, prefix in ((a, "a"), (b, "b")):
            for i in range(3):
                ledger.record(
                    "admit", t=0.0, obj=_obj(f"{prefix}-{i}"), unit="d", importance=1.0
                )
        a.merge(b)
        assert a.dropped >= 4

    @pytest.mark.parametrize("bound", [1, 2, 3, 5, 100])
    def test_merged_parts_equal_one_ledger_fed_the_concatenated_stream(self, bound):
        # The parent folds worker ledgers into an empty one; the result must
        # be what one process would have recorded, ring truncation included.
        single = AuditLedger(max_records=bound)
        merged = AuditLedger(max_records=bound)
        for prefix, n in (("a", 5), ("b", 4), ("c", 1), ("d", 7)):
            part = AuditLedger(max_records=bound)
            for i in range(n):
                for ledger in (part, single):
                    ledger.record(
                        "admit", t=float(i), obj=_obj(f"{prefix}-{i}"), unit="d", importance=1.0
                    )
            merged.merge(part)
        assert [r.to_dict() for r in merged] == [r.to_dict() for r in single]
        assert (merged.dropped, merged.recorded_count) == (single.dropped, single.recorded_count)
        assert merged.recorded_count == len(merged) + merged.dropped == 17

    def test_merging_a_truncated_ledger_keeps_its_drops_counted(self):
        part = AuditLedger(max_records=3)
        for i in range(5):
            part.record("admit", t=0.0, obj=_obj(f"p-{i}"), unit="d", importance=1.0)
        merged = AuditLedger(max_records=3)
        merged.merge(part)
        assert (len(merged), merged.dropped, merged.recorded_count) == (3, 2, 5)
        assert [r.seq for r in merged] == [2, 3, 4]

    def test_pickle_roundtrip_keeps_records_and_counters(self):
        # A worker ships its ledger to the parent as the object itself.
        ledger = AuditLedger(sample=0.5, max_records=2)
        for i in range(40):
            ledger.record("admit", t=0.0, obj=_obj(f"x-{i}"), unit="d", importance=1.0)
        clone = pickle.loads(pickle.dumps(ledger))
        assert [r.to_dict() for r in clone] == [r.to_dict() for r in ledger]
        assert (clone.sample, clone.dropped, clone.recorded_count) == (
            ledger.sample, ledger.dropped, ledger.recorded_count,
        )
        assert clone.wants("x-0") == ledger.wants("x-0")

    def test_jsonl_roundtrip_is_byte_stable(self):
        ledger = self._filled("x", 4)
        buf = io.StringIO()
        assert ledger.write_jsonl(buf) == 4
        text = buf.getvalue()
        clone = AuditLedger.read_jsonl(io.StringIO(text))
        buf2 = io.StringIO()
        clone.write_jsonl(buf2)
        assert buf2.getvalue() == text

    def test_read_jsonl_skips_blank_lines(self):
        ledger = self._filled("x", 2)
        buf = io.StringIO()
        ledger.write_jsonl(buf)
        padded = "\n" + buf.getvalue() + "\n\n"
        assert len(AuditLedger.read_jsonl(io.StringIO(padded))) == 2

    def test_records_for_and_first_appearance_order(self):
        ledger = AuditLedger()
        for oid in ("b", "a", "b"):
            ledger.record("admit", t=0.0, obj=_obj(oid), unit="d", importance=1.0)
        assert ledger.object_ids() == ("b", "a")
        assert len(ledger.records_for("b")) == 2

    def test_record_roundtrip_preserves_competing_tuple(self):
        record = AuditRecord(
            seq=0,
            t=1.0,
            action="admit",
            object_id="o",
            unit="d",
            importance=1.0,
            competing=("v1", "v2"),
        )
        clone = AuditRecord.from_dict(record.to_dict())
        assert clone.competing == ("v1", "v2")

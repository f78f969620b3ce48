"""The run history's column store (:class:`repro.core.store.HistoryLog`):
every record appended comes back equal and bit for bit, whatever the
float signs, integer widths, optionals, ids or label counts, across flush
boundaries and between reads, and a log pickles."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.importance import ConstantImportance, TwoStepImportance
from repro.core.store import _BATCH, EvictionRecord, HistoryLog, RejectionRecord
from repro.core.store import ArrivalRecord

LIFETIMES = (TwoStepImportance(p=0.5, t_persist=10.0, t_wane=20.0), ConstantImportance(1.0))

floats = st.floats(allow_nan=False) | st.sampled_from([-0.0, 0.0, 5e-324, -1e308])
sizes = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([2**63 - 1, 1, 0])
labels = st.text(max_size=4)
#: Packed into one byte buffer per column: None, empty, non-ASCII (lone
#: surrogates included) and 1 KiB ids must all come back equal.
ids = (
    st.none()
    | st.text(max_size=8)
    | st.text(st.characters(min_codepoint=0x80), max_size=4)
    | st.sampled_from(["", "\ud800", "x" * 1024, "é" * 512, "\U0001f600" * 256])
)

RECORDS = {
    ArrivalRecord: st.builds(
        ArrivalRecord, t=floats, size=sizes, admitted=st.booleans(), creator=labels,
        object_id=ids, unit=labels,
    ),
    EvictionRecord: st.builds(
        EvictionRecord, object_id=ids, creator=labels, size=sizes, t_arrival=floats,
        lifetime=st.sampled_from(LIFETIMES), t_evicted=floats,
        importance_at_eviction=floats, reason=labels, preempted_by=st.none() | ids,
        unit=labels,
    ),
    RejectionRecord: st.builds(
        RejectionRecord, object_id=ids, creator=labels, size=sizes, t_arrival=floats,
        lifetime=st.sampled_from(LIFETIMES), t_rejected=floats,
        blocking_importance=st.none() | floats, reason=labels, unit=labels,
    ),
}


def _fields(record) -> tuple:
    """A record's field values in field order, as :meth:`HistoryLog.add` takes them."""
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


def _bits(record):
    """Each field as (type, exact value): ``-0.0`` and ``0.0`` differ."""
    return tuple((type(v), v.hex() if isinstance(v, float) else v) for v in _fields(record))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(RECORDS, key=lambda kind: kind.__name__)).flatmap(
        lambda kind: st.tuples(st.just(kind), st.lists(RECORDS[kind], max_size=30))
    ),
    st.integers(0, _BATCH + 10),
    st.data(),
)
def test_appended_records_come_back_equal_and_bit_exact(kind_and_records, pad, data):
    kind, records = kind_and_records
    # Padding rows put the drawn records across a flush boundary.
    records = records[:1] * pad + records
    # A read part way through flushes the rows so far; the rest stay buffered.
    cut = data.draw(st.integers(0, len(records)))
    log = HistoryLog(kind)
    for i, record in enumerate(records):
        if i == cut:
            assert len(log) == cut and log[:] == records[:cut]
            assert [_bits(log[j]) for j in range(max(0, cut - 3), cut)] == [
                _bits(r) for r in records[max(0, cut - 3) : cut]
            ]
        log.add(*_fields(record))
    assert len(log) == len(records)
    assert log == records and records == log
    assert [_bits(r) for r in log] == [_bits(r) for r in records]
    assert [_bits(log[i]) for i in range(-len(log), len(log))] == [_bits(r) for r in records * 2]
    assert log[1:-1:2] == records[1:-1:2]
    for field in dataclasses.fields(kind):
        assert list(log.column(field.name)) == [getattr(r, field.name) for r in records]
    copy = pickle.loads(pickle.dumps(log))
    assert type(copy) is HistoryLog and copy == log
    assert [_bits(r) for r in copy] == [_bits(r) for r in records]


def test_more_labels_than_sixteen_bits_hold():
    log = HistoryLog(ArrivalRecord)
    units = [f"node-{i:05d}" for i in range(70_000)]
    for i, unit in enumerate(units):
        log.add(float(i), 1, True, "student", f"obj-{i}", unit)
        if i % 10_007 == 0:  # reads between appends see every row so far
            assert len(log) == i + 1 and log[i].unit == unit
    assert list(log.column("unit")) == units
    assert log[-1] == ArrivalRecord(69_999.0, 1, True, "student", "obj-69999", "node-69999")


def test_an_int_beyond_64_bits_keeps_its_value():
    log = HistoryLog(ArrivalRecord)
    for i in range(300):  # past one buffered batch, so the column is an array
        log.add(float(i), 2**63 - 1, False, "c", f"a{i}", "u")
    log.add(1.0, 2**70, False, "c", "b", "u")
    assert [r.size for r in log] == [2**63 - 1] * 300 + [2**70]
    with pytest.raises(TypeError, match="6 fields"):
        log.add(2.0, 1, False, "c", "no unit")
    assert pickle.loads(pickle.dumps(log)) == log


def test_a_log_is_read_only_and_compares_by_records():
    log = HistoryLog(ArrivalRecord)
    assert log == [] and len(log) == 0 and list(log) == []
    record = ArrivalRecord(0.0, 10, True, "c", "a")
    log.add(*_fields(record))
    assert log != [] and log != [ArrivalRecord(0.0, 10, False, "c", "a")]
    assert log != (record,)  # a tuple is not a list of records
    copy = pickle.loads(pickle.dumps(log))
    copy.add(*_fields(record))
    assert len(log) == 1 and len(copy) == 2
    with pytest.raises(TypeError):
        log[0] = record


def test_ids_read_back_as_equal_strings_and_none_as_none():
    log = HistoryLog(EvictionRecord)
    oid = "".join(["obj-", "1"])  # built at run time, so not an interned constant
    record = EvictionRecord(oid, "c", 1, 0.0, LIFETIMES[0], 1.0, 0.5, "manual", None, "u")
    log.add(*_fields(record))
    assert log[0] == record and log[0].object_id == oid and log[0].object_id is not oid
    assert log[0].preempted_by is None and list(log.column("preempted_by")) == [None]

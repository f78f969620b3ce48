"""The run history's column store (:class:`repro.core.store.HistoryLog`):
every record appended comes back equal and bit for bit, whatever the
float signs, integer widths, optionals or label counts, and a log pickles."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.importance import ConstantImportance, TwoStepImportance
from repro.core.store import EvictionRecord, HistoryLog, RejectionRecord
from repro.sim.recorder import ArrivalRecord

LIFETIMES = (TwoStepImportance(p=0.5, t_persist=10.0, t_wane=20.0), ConstantImportance(1.0))

floats = st.floats(allow_nan=False) | st.sampled_from([-0.0, 0.0, 5e-324, -1e308])
sizes = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([2**63 - 1, 1, 0])
labels = st.text(max_size=4)
ids = st.text(max_size=8)

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


def _bits(record):
    """Each field as (type, exact value): ``-0.0`` and ``0.0`` differ."""
    values = (getattr(record, f.name) for f in dataclasses.fields(record))
    return tuple((type(v), v.hex() if isinstance(v, float) else v) for v in values)


@settings(max_examples=200)
@given(
    st.sampled_from(sorted(RECORDS, key=lambda kind: kind.__name__)).flatmap(
        lambda kind: st.tuples(st.just(kind), st.lists(RECORDS[kind], max_size=30))
    )
)
def test_appended_records_come_back_equal_and_bit_exact(kind_and_records):
    kind, records = kind_and_records
    log = HistoryLog(kind)
    for record in records:
        log.append(record)
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
    log.append(record)
    assert log != [] and log != [ArrivalRecord(0.0, 10, False, "c", "a")]
    assert log != (record,)  # a tuple is not a list of records
    copy = pickle.loads(pickle.dumps(log))
    copy.append(record)
    assert len(log) == 1 and len(copy) == 2
    with pytest.raises(TypeError):
        log[0] = record

"""The shape of the value types a run keeps: slotted, picklable, and the
eviction / rejection records hold an object's facts, never the object."""

import dataclasses
import pickle

import pytest

from repro.core.density import DensitySample
from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import AdmissionResult, EvictionRecord, RejectionRecord, StorageUnit
from repro.sim.recorder import ArrivalRecord, Recorder
from repro.sim.runner import run_single_store
from repro.units import days, gib
from tests.conftest import make_obj


def _busy_run():
    """A recorded run, history kept, with preemptions and rejections."""
    store = StorageUnit(gib(3), TemporalImportancePolicy(), name="busy", keep_history=True)
    arrivals = [make_obj(1.0, t_arrival=days(day)) for day in range(0, 40, 2) for _ in range(2)]
    result = run_single_store(store, arrivals, days(40), recorder=Recorder())
    return store, result.recorder


def _one_of_each():
    store, recorder = _busy_run()
    admitted = StorageUnit(gib(1), TemporalImportancePolicy()).offer(make_obj(0.5), 0.0)
    return {
        StoredObject: next(store.iter_residents()),
        EvictionRecord: recorder.evictions[0],
        RejectionRecord: recorder.rejections[0],
        AdmissionResult: admitted,
        ArrivalRecord: recorder.arrivals[0],
        DensitySample: recorder.density_samples[0],
    }


def test_records_hold_no_stored_object():
    store, recorder = _busy_run()
    records = [*store.evictions, *store.rejections, *recorder.evictions, *recorder.rejections]
    assert recorder.evictions and recorder.rejections
    assert store.evictions == recorder.evictions and store.rejections == recorder.rejections
    for record in records:
        for field in dataclasses.fields(record):
            assert not isinstance(getattr(record, field.name), StoredObject), field.name


@pytest.mark.parametrize(
    "kind", [StoredObject, EvictionRecord, RejectionRecord, AdmissionResult, ArrivalRecord,
             DensitySample],
    ids=lambda kind: kind.__name__,
)
def test_value_types_are_slotted_and_pickle(kind):
    value = _one_of_each()[kind]
    assert type(value) is kind
    assert not hasattr(value, "__dict__")
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and copy is not value

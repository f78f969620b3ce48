"""The shape of the value types a run keeps: slotted, picklable, the
eviction / rejection records hold an object's facts, never the object, and
no generated object carries a mapping of its own."""

import dataclasses
import pickle
from itertools import islice

import pytest

from repro.besteffs.auth import CapabilityRealm
from repro.core.density import DensitySample
from repro.core.obj import EMPTY_METADATA, StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import (
    AdmissionResult,
    ArrivalRecord,
    EvictionRecord,
    RejectionRecord,
    StorageUnit,
)
from repro.sim.recorder import Recorder
from repro.fs import TemporalFS
from repro.serve.loadgen import LoadGenSpec, build_requests
from repro.sim.runner import run_single_store
from repro.sim.workload.lecture import LectureCaptureWorkload
from repro.sim.workload.single_app import SingleAppWorkload
from repro.sim.workload.university import UniversityWorkload
from repro.units import days, gib, mib
from tests.conftest import make_obj


def _busy_run():
    """A recorded run with preemptions and rejections."""
    store = StorageUnit(gib(3), TemporalImportancePolicy(), name="busy")
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
    records = [*recorder.evictions, *recorder.rejections]
    assert recorder.evictions and recorder.rejections
    assert store.history is recorder
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


def _fs_objects():
    fs = TemporalFS(mib(16))
    for i in range(6):
        fs.write(f"/docs/{i}", b"x" * (i + 1), float(i))
    return list(fs.store.iter_residents())


def _requested(workload):
    spec = LoadGenSpec(workload=workload, horizon_days=30.0, scale=0.005)
    return [request.obj for request in build_requests(spec, CapabilityRealm(b"k"))]


@pytest.mark.parametrize(
    "stream",
    [
        lambda: UniversityWorkload(seed=3).arrivals(days(30)),
        lambda: LectureCaptureWorkload(seed=3).arrivals(days(30)),
        lambda: SingleAppWorkload(seed=3).arrivals(days(30)),
        lambda: _requested("flashcrowd"),
        lambda: _requested("downloads"),
        _fs_objects,
    ],
    ids=["university", "lecture", "single-app", "flashcrowd", "downloads", "fs-writes"],
)
def test_every_generator_shares_the_empty_metadata(stream):
    objs = list(islice(stream(), 2000))
    assert len(objs) > 5
    assert all(obj.metadata is EMPTY_METADATA for obj in objs)

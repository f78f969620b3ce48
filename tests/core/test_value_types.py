"""The shape of the value types a run keeps: slotted, picklable, the
eviction / rejection records hold an object's facts, never the object, and
no generated object carries a mapping of its own.  The types built per
event take their ``__init__`` from :func:`repro._values.slot_init`, which
must build what the plain dataclass builds."""

import dataclasses
import pickle
import weakref
from itertools import islice

import pytest

from repro._values import slot_init
from repro.besteffs.auth import CapabilityRealm
from repro.besteffs.placement import PlacementDecision
from repro.core.density import DensitySample
from repro.core.importance import TwoStepImportance
from repro.core.obj import EMPTY_METADATA, StoredObject, reset_object_ids
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.policy import AdmissionPlan
from repro.core.store import (
    AdmissionResult,
    ArrivalRecord,
    EvictionRecord,
    RejectionRecord,
    StorageUnit,
)
from repro.errors import ReproError
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


# -- repro._values.slot_init: the same values as a plain dataclass -------------

_LIFE = TwoStepImportance(p=1.0, t_persist=10.0, t_wane=10.0)
_OBJ = StoredObject(5, 3.0, _LIFE, object_id="o-1")
_PLAN = AdmissionPlan(True, (_OBJ,), 0.5, None, "preempt")
_EVICTION = EvictionRecord("o-1", "u", 5, 3.0, _LIFE, 9.0, 0.5, "preempted", "o-2", "d")
_REJECTION = RejectionRecord("o-3", "u", 5, 3.0, _LIFE, 9.0, 0.75, "full-for-importance", "d")

#: Per decorated type: full positional arguments, then calls that leave
#: the defaults to the class (keyword and positional).
_CALLS = {
    StoredObject: [
        ((7, 2.0, _LIFE, "o-9", "camera", {"k": 1}), {}),
        ((), {"size": 7, "t_arrival": 2, "lifetime": _LIFE}),
        ((7, 0, _LIFE), {"creator": "x", "metadata": {}}),
    ],
    EvictionRecord: [
        ((*(getattr(_EVICTION, f.name) for f in dataclasses.fields(EvictionRecord)),), {}),
        (("o-1", "u", 5, 3.0, _LIFE, 9.0, 0.5, "expired"), {}),
        ((), {"object_id": "o", "creator": "c", "size": 1, "t_arrival": 0.0,
              "lifetime": _LIFE, "t_evicted": 1.0, "importance_at_eviction": 0.0,
              "reason": "manual", "unit": "d"}),
    ],
    RejectionRecord: [
        (("o-3", "u", 5, 3.0, _LIFE, 9.0, None, "object-too-large", "d"), {}),
        (("o-3", "u", 5, 3.0, _LIFE, 9.0, 0.75, "full-for-importance"), {}),
    ],
    AdmissionResult: [
        ((True, _PLAN, (_EVICTION,), None), {}),
        ((False,), {"plan": _PLAN, "rejection": _REJECTION}),
    ],
    AdmissionPlan: [
        ((True, (_OBJ,), 0.5, None, "preempt"), {}),
        ((False,), {"blocking_importance": 0.5}),
        ((), {"admit": True}),
    ],
    PlacementDecision: [
        ((True, "n-1", 1, 3, 0.25, "lowest-preempted"), {}),
        ((), {"placed": False, "node_id": None, "rounds_used": 0, "nodes_probed": 0,
              "chosen_score": 0.0, "reason": "all-full"}),
    ],
}

#: Arguments each type's ``__post_init__`` refuses.
_REFUSED = {
    StoredObject: [
        ((1.5, 0.0, _LIFE), {}), ((True, 0.0, _LIFE), {}), (("3", 0.0, _LIFE), {}),
        ((0, 0.0, _LIFE), {}), ((-4, 0.0, _LIFE), {}),
        ((1, float("nan"), _LIFE), {}), ((1, float("inf"), _LIFE), {}), ((1, -1, _LIFE), {}),
        ((1, "soon", _LIFE), {}), ((1, None, _LIFE), {}), ((1, 0.0, "L"), {}),
        ((1, 0.0, _LIFE), {"metadata": [("k", 1)]}),
    ],
}


def _plain_twin(cls):
    """``cls`` as ``@dataclass(frozen=True, slots=True)`` alone builds it:
    a subclass whose ``__init__`` is the dataclass's own."""
    return dataclasses.dataclass(frozen=True, slots=True)(type(f"Plain{cls.__name__}", (cls,), {}))


def _values(value) -> list:
    return [getattr(value, f.name) for f in dataclasses.fields(value)]


def _outcome(build):
    reset_object_ids()
    try:
        return "ok", _values(build())
    except (ReproError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", list(_CALLS), ids=lambda kind: kind.__name__)
def test_slot_init_builds_what_the_plain_dataclass_builds(kind):
    twin = _plain_twin(kind)
    assert kind.__init__ is not twin.__init__
    assert kind.__init__.__defaults__ == twin.__init__.__defaults__
    assert kind.__init__.__annotations__ == twin.__init__.__annotations__
    for args, kwargs in _CALLS[kind] + _REFUSED.get(kind, []):
        fast = _outcome(lambda: kind(*args, **kwargs))
        assert fast == _outcome(lambda: twin(*args, **kwargs)), (args, kwargs)
    for args, kwargs in _REFUSED.get(kind, []):
        assert _outcome(lambda: kind(*args, **kwargs))[0] != "ok", (args, kwargs)


@pytest.mark.parametrize("kind", list(_CALLS), ids=lambda kind: kind.__name__)
def test_slot_init_keeps_frozen_replace_and_pickle(kind):
    args, kwargs = _CALLS[kind][0]
    value = kind(*args, **kwargs)
    name = dataclasses.fields(kind)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, name)
    assert not hasattr(value, "__dict__")
    assert dataclasses.replace(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    with pytest.raises(TypeError):
        weakref.ref(value)


def test_slot_init_calls_the_factory_once_per_instance():
    calls = []

    @slot_init
    @dataclasses.dataclass(frozen=True, slots=True)
    class Bag:
        name: str
        items: list = dataclasses.field(default_factory=lambda: calls.append(1) or [])

    a, b = Bag("a"), Bag("b")
    assert a.items == b.items == [] and a.items is not b.items
    assert len(calls) == 2
    given = [1]
    assert Bag("c", given).items is given and len(calls) == 2
    assert StoredObject(1, 0.0, _LIFE).metadata is EMPTY_METADATA


def test_slot_init_refuses_what_it_does_not_handle():
    with pytest.raises(TypeError, match="InitVar"):
        @slot_init
        @dataclasses.dataclass(frozen=True, slots=True)
        class WithInitVar:
            a: int
            b: dataclasses.InitVar[int]

    with pytest.raises(TypeError, match="kw_only"):
        @slot_init
        @dataclasses.dataclass(frozen=True, slots=True, kw_only=True)
        class KeywordOnly:
            a: int

    with pytest.raises(TypeError, match="kw_only"):
        @slot_init
        @dataclasses.dataclass(frozen=True, slots=True)
        class OneKeywordOnly:
            a: int
            b: int = dataclasses.field(default=0, kw_only=True)

    with pytest.raises(TypeError, match="slotted"):
        @slot_init
        @dataclasses.dataclass(frozen=True)
        class Unslotted:
            a: int

    with pytest.raises(TypeError, match="slotted"):
        slot_init(type("NotADataclass", (), {"__slots__": ()}))

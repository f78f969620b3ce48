"""Unit tests for the stored-object model."""

import copy
import dataclasses
import pickle

import pytest

from repro.core.importance import ConstantImportance, TwoStepImportance
from repro.core.obj import EMPTY_METADATA, FrozenMetadata, StoredObject, reset_object_ids
from repro.errors import AnnotationError
from repro.units import days, gib


class TestConstruction:
    def test_auto_ids_are_sequential_and_unique(self, two_step):
        reset_object_ids()
        a = StoredObject(size=1, t_arrival=0.0, lifetime=two_step)
        b = StoredObject(size=1, t_arrival=0.0, lifetime=two_step)
        assert a.object_id == "obj-000000"
        assert b.object_id == "obj-000001"

    def test_explicit_id_is_kept(self, two_step):
        obj = StoredObject(size=1, t_arrival=0.0, lifetime=two_step, object_id="video-1")
        assert obj.object_id == "video-1"

    def test_metadata_is_copied(self, two_step):
        shared = {"course": 1}
        obj = StoredObject(size=1, t_arrival=0.0, lifetime=two_step, metadata=shared)
        shared["course"] = 2
        assert obj.metadata["course"] == 1

    @pytest.mark.parametrize("bad_size", [0, -1, 1.5, "big", True])
    def test_rejects_bad_sizes(self, two_step, bad_size):
        with pytest.raises(AnnotationError):
            StoredObject(size=bad_size, t_arrival=0.0, lifetime=two_step)

    def test_rejects_negative_arrival(self, two_step):
        with pytest.raises(AnnotationError):
            StoredObject(size=1, t_arrival=-1.0, lifetime=two_step)

    @pytest.mark.parametrize("t_arrival", [float("inf"), float("nan")])
    def test_rejects_a_non_finite_arrival(self, two_step, t_arrival):
        with pytest.raises(AnnotationError):
            StoredObject(size=1, t_arrival=t_arrival, lifetime=two_step)

    def test_rejects_non_function_lifetime(self):
        with pytest.raises(AnnotationError):
            StoredObject(size=1, t_arrival=0.0, lifetime="forever")


class TestTemporalQueries:
    def test_age_at(self, two_step):
        obj = StoredObject(size=1, t_arrival=days(10), lifetime=two_step)
        assert obj.age_at(days(25)) == days(15)
        assert obj.age_at(days(5)) == 0.0  # clock before arrival clamps

    def test_importance_tracks_lifetime(self, two_step):
        obj = StoredObject(size=gib(1), t_arrival=days(100), lifetime=two_step)
        assert obj.importance_at(days(100)) == 1.0
        assert obj.importance_at(days(122.5)) == pytest.approx(0.5)
        assert obj.importance_at(days(200)) == 0.0

    def test_expiry_is_relative_to_arrival(self, two_step):
        obj = StoredObject(size=1, t_arrival=days(100), lifetime=two_step)
        assert not obj.is_expired_at(days(129))
        assert obj.is_expired_at(days(130))
        assert obj.t_expire_abs == days(130)

    def test_remaining_lifetime_at(self, two_step):
        obj = StoredObject(size=1, t_arrival=days(10), lifetime=two_step)
        assert obj.remaining_lifetime_at(days(20)) == days(20)

    def test_constant_never_expires(self):
        obj = StoredObject(size=1, t_arrival=0.0, lifetime=ConstantImportance())
        assert not obj.is_expired_at(days(100_000))


class TestValueSemantics:
    def test_objects_are_frozen(self, two_step):
        obj = StoredObject(size=1, t_arrival=0.0, lifetime=two_step)
        with pytest.raises(AttributeError):
            obj.size = 2

    def test_repr_is_compact(self, two_step):
        obj = StoredObject(size=5, t_arrival=0.0, lifetime=two_step, object_id="x")
        assert "x" in repr(obj) and "5" in repr(obj)

    def test_lifetime_can_be_shared(self):
        lifetime = TwoStepImportance(p=1.0, t_persist=days(1), t_wane=days(1))
        a = StoredObject(size=1, t_arrival=0.0, lifetime=lifetime)
        b = StoredObject(size=2, t_arrival=0.0, lifetime=lifetime)
        assert a.lifetime is b.lifetime


class TestMetadata:
    def test_no_metadata_shares_the_empty_mapping(self, two_step):
        a = StoredObject(size=1, t_arrival=0.0, lifetime=two_step)
        b = StoredObject(size=1, t_arrival=0.0, lifetime=two_step, metadata={})
        assert a.metadata is EMPTY_METADATA and b.metadata is EMPTY_METADATA
        assert a.metadata == {} and not a.metadata

    def test_metadata_is_read_only(self, two_step):
        obj = StoredObject(size=1, t_arrival=0.0, lifetime=two_step, metadata={"course": 1})
        with pytest.raises(TypeError):
            obj.metadata["course"] = 99
        with pytest.raises(TypeError):
            del obj.metadata["course"]
        assert dict(obj.metadata) == {"course": 1}
        with pytest.raises(TypeError):
            EMPTY_METADATA["course"] = 99
        assert not EMPTY_METADATA

    @pytest.mark.parametrize("bad", [None, [("course", 1)], "course"])
    def test_rejects_non_mapping_metadata(self, two_step, bad):
        with pytest.raises(AnnotationError):
            StoredObject(size=1, t_arrival=0.0, lifetime=two_step, metadata=bad)

    def test_empty_mapping_pickles_back_to_the_singleton(self, two_step):
        obj = StoredObject(size=1, t_arrival=0.0, lifetime=two_step)
        assert pickle.loads(pickle.dumps(EMPTY_METADATA)) is EMPTY_METADATA
        assert pickle.loads(pickle.dumps(obj)).metadata is EMPTY_METADATA
        assert copy.deepcopy(obj).metadata is EMPTY_METADATA

    def test_non_empty_mapping_pickles_back_equal(self, two_step):
        obj = StoredObject(size=1, t_arrival=0.0, lifetime=two_step, metadata={"course": 3})
        back = pickle.loads(pickle.dumps(obj)).metadata
        assert type(back) is FrozenMetadata
        assert back == {"course": 3} and back == obj.metadata

    def test_replace_shares_the_frozen_mapping(self, two_step):
        obj = StoredObject(size=1, t_arrival=0.0, lifetime=two_step, metadata={"course": 3})
        assert dataclasses.replace(obj, t_arrival=5.0).metadata is obj.metadata
        plain = StoredObject(size=1, t_arrival=0.0, lifetime=two_step)
        assert dataclasses.replace(plain, size=2).metadata is EMPTY_METADATA

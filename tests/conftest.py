"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.importance import TwoStepImportance
from repro.core.obj import StoredObject, reset_object_ids
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.units import days, gib


@pytest.fixture(autouse=True)
def _fresh_object_ids():
    """Keep auto-generated object ids deterministic per test."""
    reset_object_ids()
    yield
    reset_object_ids()


@pytest.fixture
def two_step() -> TwoStepImportance:
    """The paper's Section 5.1 annotation (15 d persist + 15 d wane)."""
    return TwoStepImportance(p=1.0, t_persist=days(15), t_wane=days(15))


@pytest.fixture
def temporal_store() -> StorageUnit:
    """A 10 GiB disk under the temporal-importance policy, logging its
    decisions into a history of its own."""
    return StorageUnit(gib(10), TemporalImportancePolicy(), name="test-disk", keep_history=True)


def make_obj(
    size_gib: float = 1.0,
    t_arrival: float = 0.0,
    lifetime=None,
    **kwargs,
) -> StoredObject:
    """Test helper: a GiB-sized object with a default two-step lifetime."""
    if lifetime is None:
        lifetime = TwoStepImportance(p=1.0, t_persist=days(15), t_wane=days(15))
    return StoredObject(
        size=gib(size_gib), t_arrival=t_arrival, lifetime=lifetime, **kwargs
    )


@pytest.fixture
def obj_factory():
    """Expose :func:`make_obj` as a fixture."""
    return make_obj

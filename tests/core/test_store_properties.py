"""Property-based tests of storage-unit invariants (hypothesis).

DESIGN.md invariants exercised here against random operation sequences:

2. a store never holds more bytes than its capacity;
3. a resident is only preempted by a strictly more important arrival;
4. density stays within [0, 1];
5. admission is all-or-nothing (rejections leave state untouched);
6. achieved lifetime <= requested lifetime for preemptions that occur
   before expiry.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.density import importance_density
from repro.core.importance import TwoStepImportance
from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.units import days

CAPACITY = 1000  # small integer bytes keep shrinking readable


@st.composite
def arrival_sequences(draw):
    """A time-ordered sequence of (dt, size, p, persist, wane) tuples."""
    n = draw(st.integers(min_value=1, max_value=40))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=int(days(5))).map(float),  # dt
                st.integers(min_value=1, max_value=CAPACITY),                  # size
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),      # p
                st.integers(min_value=0, max_value=int(days(20))).map(float),   # persist
                st.integers(min_value=0, max_value=int(days(20))).map(float),   # wane
            ),
            min_size=n,
            max_size=n,
        )
    )
    return steps


def replay(steps):
    """Run a sequence against a fresh store, checking invariants inline."""
    store = StorageUnit(CAPACITY, TemporalImportancePolicy(), name="prop")
    now = 0.0
    for i, (dt, size, p, persist, wane) in enumerate(steps):
        now += dt
        obj = StoredObject(
            size=size,
            t_arrival=now,
            lifetime=TwoStepImportance(p=p, t_persist=persist, t_wane=wane),
            object_id=f"prop-{i}",
        )
        residents_before = {o.object_id: o for o in store.iter_residents()}
        used_before = store.used_bytes
        result = store.offer(obj, now)

        # Invariant 2: capacity never exceeded.
        assert store.used_bytes <= store.capacity_bytes

        # Invariant 4: density in [0, 1].
        density = importance_density(store, now)
        assert 0.0 <= density <= 1.0 + 1e-12

        if result.admitted:
            incoming_importance = obj.importance_at(now)
            for record in result.evictions:
                victim_importance = record.importance_at_eviction
                # Invariant 3: strict preemption (victims of importance 0
                # are free prey for anything).
                assert (
                    victim_importance < incoming_importance
                    or victim_importance == 0.0
                )
                # Invariant 6 (consistency): the recorded eviction
                # importance is exactly the victim's annotation evaluated
                # at its eviction age, and a pre-expiry preemption implies
                # the victim was annotated below the incoming importance.
                age = record.t_evicted - record.t_arrival
                assert victim_importance == record.lifetime.importance_at(age)
                if (
                    not math.isinf(record.requested_lifetime)
                    and record.achieved_lifetime < record.requested_lifetime
                ):
                    assert victim_importance < incoming_importance or (
                        victim_importance == 0.0
                    )
        else:
            # Invariant 5: rejected offers change nothing.
            assert store.used_bytes == used_before
            assert {
                o.object_id: o for o in store.iter_residents()
            } == residents_before
    return store


@given(steps=arrival_sequences())
@settings(max_examples=150, deadline=None)
def test_invariants_hold_over_random_sequences(steps):
    replay(steps)


@given(steps=arrival_sequences())
@settings(max_examples=60, deadline=None)
def test_accounting_counters_consistent(steps):
    stats = replay(steps).stats()
    assert stats.accepted_count == stats.resident_count + stats.evicted_count
    assert stats.bytes_accepted >= stats.bytes_evicted
    assert stats.used_bytes == stats.bytes_accepted - stats.bytes_evicted
    assert stats.offered_count == stats.accepted_count + stats.rejected_count
    assert stats.free_bytes == stats.capacity_bytes - stats.used_bytes


@given(steps=arrival_sequences())
@settings(max_examples=60, deadline=None)
def test_used_bytes_matches_resident_sum(steps):
    store = replay(steps)
    assert store.used_bytes == sum(o.size for o in store.iter_residents())


@st.composite
def minute_streams(draw):
    """Integer-minute ``(dt, size, p, persist, wane)`` steps plus a power 2^k."""
    minutes = st.integers(min_value=0, max_value=int(days(20)))
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=int(days(5))),      # dt
                st.integers(min_value=1, max_value=CAPACITY),          # size
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),  # p
                minutes,                                               # persist
                minutes,                                               # wane
            ),
            min_size=1,
            max_size=40,
        )
    )
    return steps, 2 ** draw(st.integers(min_value=1, max_value=8))


def _decisions(steps, scale):
    """Every offer's decision, eviction set and density reading at ``scale``."""
    store = StorageUnit(CAPACITY * scale, TemporalImportancePolicy(), name="prop")
    now = 0
    trail = []
    for i, (dt, size, p, persist, wane) in enumerate(steps):
        now += dt
        obj = StoredObject(
            size=size * scale,
            t_arrival=now,
            lifetime=TwoStepImportance(p=p, t_persist=persist, t_wane=wane),
            object_id=f"prop-{i}",
        )
        result = store.offer(obj, now)
        trail.append((
            result.admitted,
            tuple(sorted(record.object_id for record in result.evictions)),
            importance_density(store, now),
        ))
    return trail


@given(stream=minute_streams())
@settings(max_examples=100, deadline=None)
def test_scaling_sizes_and_capacity_by_a_power_of_two_changes_nothing(stream):
    # §4.4: density is size-weighted importance over raw capacity, so a
    # common 2^k factor on every size and on the capacity cancels exactly
    # (power-of-two scaling is exact in binary floating point).
    steps, scale = stream
    assert _decisions(steps, scale) == _decisions(steps, 1)

"""Property tests of the policy-family reduction claims.

DESIGN.md and Section 3.1 claim the two-step abstraction *generalises* the
baselines: with degenerate annotations the temporal-importance policy
reduces to them.  These tests prove the reductions over random arrival
sequences:

* with ``FixedLifetimeImportance(p=1, T)`` annotations, the temporal
  policy accepts/rejects exactly like :class:`FixedLifetimePolicy`
  (importance is 1 until expiry, so only expired residents are ever
  preemptible under the strict rule);
* ``TwoStepImportance(p, t_persist, 0)`` is pointwise equal to
  ``FixedLifetimeImportance(p, t_persist)``;
* ``PalimpsestPolicy`` is behaviourally identical to ``FIFOPolicy``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.importance import FixedLifetimeImportance, TwoStepImportance
from repro.core.obj import StoredObject
from repro.core.policies import (
    FIFOPolicy,
    FixedLifetimePolicy,
    PalimpsestPolicy,
    TemporalImportancePolicy,
)
from repro.core.store import StorageUnit
from repro.units import days

CAPACITY = 1000

durations = st.floats(min_value=1.0, max_value=days(30), allow_nan=False)


@st.composite
def fixed_lifetime_streams(draw):
    """Arrivals all carrying full-importance fixed-lifetime annotations."""
    n = draw(st.integers(min_value=1, max_value=30))
    return draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=int(days(4))).map(float),  # dt
                st.integers(min_value=1, max_value=CAPACITY),                  # size
                durations,                                                     # expire
            ),
            min_size=n,
            max_size=n,
        )
    )


def replay(policy, steps, tag):
    store = StorageUnit(CAPACITY, policy, name=f"eq-{tag}")
    verdicts = []
    now = 0.0
    for i, (dt, size, expire) in enumerate(steps):
        now += dt
        obj = StoredObject(
            size=size,
            t_arrival=now,
            lifetime=FixedLifetimeImportance(p=1.0, expire_after=expire),
            object_id=f"{tag}-{i}",
        )
        result = store.offer(obj, now)
        verdicts.append(result.admitted)
    return verdicts, store


@given(steps=fixed_lifetime_streams())
@settings(max_examples=120, deadline=None)
def test_temporal_reduces_to_fixed_lifetime_policy(steps):
    """Identical accept/reject stream (victim *choice* among equally
    expired residents may differ — both orderings are legal — so byte
    accounting can diverge by the tie-break; the admission behaviour, the
    paper-visible contract, must not)."""
    temporal_verdicts, temporal_store = replay(
        TemporalImportancePolicy(), steps, "t"
    )
    fixed_verdicts, fixed_store = replay(FixedLifetimePolicy(), steps, "f")
    assert temporal_verdicts == fixed_verdicts
    # Under either policy every preemption victim had fully expired.
    for store in (temporal_store, fixed_store):
        for record in store.evictions:
            if record.reason == "preempted":
                assert record.importance_at_eviction == 0.0


@given(
    p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    persist=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    age=st.floats(min_value=0.0, max_value=2e6, allow_nan=False),
)
@settings(max_examples=200)
def test_two_step_with_zero_wane_equals_fixed_lifetime(p, persist, age):
    two_step = TwoStepImportance(p=p, t_persist=persist, t_wane=0.0)
    fixed = FixedLifetimeImportance(p=p, expire_after=persist)
    assert two_step.importance_at(age) == fixed.importance_at(age)
    assert two_step.t_expire == fixed.t_expire
    assert two_step.is_expired(age) == fixed.is_expired(age)


@given(steps=fixed_lifetime_streams())
@settings(max_examples=60, deadline=None)
def test_palimpsest_is_fifo(steps):
    """Identical verdicts and identical victim streams."""

    def replay_with_victims(policy, tag):
        store = StorageUnit(CAPACITY, policy, name=f"pf-{tag}")
        log = []
        now = 0.0
        for i, (dt, size, expire) in enumerate(steps):
            now += dt
            obj = StoredObject(
                size=size,
                t_arrival=now,
                lifetime=FixedLifetimeImportance(p=1.0, expire_after=expire),
                object_id=f"{tag}-{i}",
            )
            result = store.offer(obj, now)
            log.append(
                (
                    result.admitted,
                    tuple(e.obj.object_id.split("-", 1)[1] for e in result.evictions),
                )
            )
        return log

    assert replay_with_victims(PalimpsestPolicy(), "p") == replay_with_victims(
        FIFOPolicy(), "q"
    )

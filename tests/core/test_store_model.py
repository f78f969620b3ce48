"""Model-based test: a real :class:`StorageUnit` against its scan twin.

A hypothesis :class:`RuleBasedStateMachine` drives two units through the
same sequence of operations — offers on and off the integer-minute grid,
manual removals, touches, expiry sweeps, placement probes, and a clock
that steps forward and back.  The twin books its residents in the
full-scan oracles of :mod:`tests.oracles`; the real unit is the one as
shipped.  After every step the two must agree on every observable:
results and eviction records, resident order, last access, per-creator
bytes, ``stats()`` and the density bits, and the real unit's index must
pass its own structural check.  Last access is also held to the
machine's own model, since both units share the store code that sets it.
"""

import dataclasses

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.density import importance_density
from repro.core.importance import (
    ConstantImportance,
    DiracImportance,
    FixedLifetimeImportance,
    ScaledImportance,
    TwoStepImportance,
)
from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from tests.core.test_index_differential import assert_evictions_equal, assert_plans_equal
from tests.oracles import oracle_store

CAPACITY = 4000
CREATORS = ("university", "student", "archive")

durations = st.one_of(st.integers(0, 60).map(float), st.sampled_from((0.5, 12.37, 40.25)))
importances = st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0))
two_steps = st.builds(
    lambda p, persist, wane: TwoStepImportance(p=p, t_persist=persist, t_wane=wane),
    importances, durations, durations,
)
annotations = st.one_of(
    two_steps,
    st.builds(lambda p, e: FixedLifetimeImportance(p=p, expire_after=e), importances, durations),
    st.builds(lambda p: ConstantImportance(p=p), importances),
    st.just(DiracImportance()),
    st.builds(lambda inner, f: ScaledImportance(inner, f), two_steps, st.sampled_from((0.5, 0.9))),
)
#: Forward steps on and off the grid, and regressions.
clock_steps = st.one_of(
    st.integers(0, 45).map(float), st.sampled_from((0.37, 2.5, -3.0, -17.0, -40.63))
)


class StoreMachine(RuleBasedStateMachine):
    strict = True

    def __init__(self):
        super().__init__()
        self.real = StorageUnit(CAPACITY, TemporalImportancePolicy(strict=self.strict), name="u")
        self.twin = oracle_store(CAPACITY, TemporalImportancePolicy(strict=self.strict), name="u")
        self.now = 0.0
        self.serial = 0
        #: object id -> the time of its admission or latest touch.
        self.accessed = {}

    def _resident(self, pick):
        ids = [obj.object_id for obj in self.twin.iter_residents()]
        return ids[pick % len(ids)]

    def _arrival(self, size, lifetime, creator):
        self.serial += 1
        return StoredObject(
            size=size, t_arrival=self.now, lifetime=lifetime,
            object_id=f"o{self.serial}", creator=creator,
        )

    @rule(dt=clock_steps)
    def step_clock(self, dt):
        self.now = max(0.0, self.now + dt)

    @rule(size=st.integers(1, 2500), lifetime=annotations, creator=st.sampled_from(CREATORS))
    def offer(self, size, lifetime, creator):
        obj = self._arrival(size, lifetime, creator)
        mine, theirs = self.real.offer(obj, self.now), self.twin.offer(obj, self.now)
        assert mine.admitted == theirs.admitted
        assert_plans_equal(theirs.plan, mine.plan, self.serial)
        assert_evictions_equal(theirs.evictions, mine.evictions, self.serial)
        assert (mine.rejection is None) == (theirs.rejection is None)
        if mine.admitted:
            self.accessed[obj.object_id] = self.now

    @rule(size=st.integers(1, CAPACITY + 1), lifetime=annotations)
    def probe(self, size, lifetime):
        obj = self._arrival(size, lifetime, "probe")
        incoming = obj.importance_at(self.now)
        plan = self.twin.peek_admission(obj, self.now)
        assert_plans_equal(plan, self.real.peek_admission(obj, self.now), self.serial)
        admissible, highest = self.real.policy.probe(self.real, obj, self.now, incoming)
        assert admissible == plan.admit
        if plan.admit:
            assert highest.hex() == plan.highest_preempted.hex()
        elif plan.blocking_importance is not None:
            # A refusal's score is a lower bound on the plan's blocker.
            assert incoming <= highest <= plan.blocking_importance

    @precondition(lambda self: len(self.twin))
    @rule(pick=st.integers(0, 10**6))
    def remove(self, pick):
        oid = self._resident(pick)
        assert_evictions_equal(
            [self.twin.remove(oid, self.now)], [self.real.remove(oid, self.now)], self.serial
        )

    @precondition(lambda self: len(self.twin))
    @rule(pick=st.integers(0, 10**6))
    def touch(self, pick):
        oid = self._resident(pick)
        assert self.real.touch(oid, self.now) is self.twin.touch(oid, self.now)
        self.accessed[oid] = self.now

    @rule()
    def reclaim_expired(self):
        assert_evictions_equal(
            self.twin.reclaim_expired(self.now), self.real.reclaim_expired(self.now), self.serial
        )

    @invariant()
    def agree(self):
        real, twin, now = self.real, self.twin, self.now
        residents = list(twin.iter_residents())
        assert list(real.iter_residents()) == residents
        assert len(real) == len(residents)
        for obj in residents:
            assert obj.object_id in real and real.get(obj.object_id) is obj
            assert real.last_access(obj.object_id) == self.accessed[obj.object_id]
            assert twin.last_access(obj.object_id) == self.accessed[obj.object_id]
        assert real.bytes_by_creator() == twin.bytes_by_creator()
        assert dataclasses.asdict(real.stats()) == dataclasses.asdict(twin.stats())
        assert importance_density(real, now).hex() == importance_density(twin, now).hex()
        assert real.importance_index.check(now)


class LaxStoreMachine(StoreMachine):
    strict = False


_SETTINGS = settings(max_examples=75, stateful_step_count=50, deadline=None)
TestStoreModel = StoreMachine.TestCase
TestStoreModel.settings = _SETTINGS
TestLaxStoreModel = LaxStoreMachine.TestCase
TestLaxStoreModel.settings = _SETTINGS

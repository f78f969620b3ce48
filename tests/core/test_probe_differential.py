"""Differential testing: a score probe must equal the plan it stands for.

``EvictionPolicy.probe`` is what Section 5.3 placement asks of a unit — is
the object admissible, and what is the highest importance it would preempt
— and placement commits a unit on that answer alone, planning it only
afterwards.  For every built-in policy ``probe`` must therefore equal
``(plan.admit, plan.highest_preempted)`` of the plan ``plan_admission``
returns at the same instant, **bit for bit** whenever the plan admits; on
a refusal only the verdict is compared (the temporal score stops at the
first victim that blocks, the plan reports the maximum of the prefix).

The temporal policy is the one with its own fold
(``GroupedResidents.preempted_floor``); the other policies go through the
default, which is derived from their plan, and are here so that it stays
that way.  The temporal fold answers a hopeless probe from a cached floor
(every live resident blocks, so the first victim would); a
:class:`~tests.oracles.FloorTally` is installed for the whole module, so
every such answer is counted and re-scored by the merge it skipped, and it
reports ``incoming`` as its lower bound on the blocker.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.importance import (
    ConstantImportance,
    DiracImportance,
    FixedLifetimeImportance,
    TwoStepImportance,
)
from repro.core.obj import StoredObject
from repro.core.policies import (
    FixedLifetimePolicy,
    GreedySizePolicy,
    LRUPolicy,
    PalimpsestPolicy,
    RandomPolicy,
    TemporalImportancePolicy,
)
from repro.core.store import StorageUnit
from repro.core.victims import _blocking_rem
from tests.core.test_index_differential import random_grid_lifetime, random_lifetime
from tests.oracles import FloorTally, oracle_store

CAPACITY = 50_000

TALLY = FloorTally()

#: Probes the cached floor answered in each churn below, every one re-scored
#: by the merge and held to its plan: the seed-2027 grid churn (of 1,800),
#: the off-grid churn (of 1,000; its residents sit in annotation groups,
#: each bound by its oldest live member's stable end) and the regressing
#: clock (where every past probe rebuilds the index and drops the cache).
GRID_FLOOR_ANSWERS = {"temporal": 169, "temporal-lax": 133}
OFF_GRID_FLOOR_ANSWERS = {"temporal": 26, "temporal-lax": 16}
REGRESSING_FLOOR_ANSWERS = {True: 91, False: 77}


@pytest.fixture(autouse=True, scope="module")
def _floor_tally():
    with TALLY:
        yield

POLICIES = {
    "temporal": TemporalImportancePolicy,
    "temporal-lax": lambda: TemporalImportancePolicy(strict=False),
    "fixed-lifetime": FixedLifetimePolicy,
    "palimpsest": PalimpsestPolicy,
    "lru": LRUPolicy,
    "greedy-size": GreedySizePolicy,
    "random": lambda: RandomPolicy(seed=11),
}


def index_snapshot(store):
    """Everything a probe at the index's own ``now`` must leave alone."""
    index = store.importance_index
    residents = tuple(obj.object_id for obj in store.iter_residents())
    return (
        store.used_bytes,
        residents,
        tuple(index.phase_of(oid) for oid in residents),
        index.expired_bytes,
        index.transitions,
        len(index.groups),
    )


def assert_probe_is_the_plan(store, obj, now, *, tag=""):
    incoming = obj.importance_at(now)
    floor_answers = TALLY.floor
    admissible, highest = store.policy.probe(store, obj, now, incoming)
    plan = store.peek_admission(obj, now)
    assert admissible == plan.admit, f"{tag}: verdicts differ ({plan.reason})"
    if plan.admit:
        assert highest.hex() == plan.highest_preempted.hex(), f"{tag}: {plan.reason}"
    elif TALLY.floor > floor_answers:
        # The cached floor's lower bound on the blocker: ``incoming``.
        assert plan.reason == "full-for-importance", tag
        assert highest == incoming <= plan.blocking_importance, tag
    elif isinstance(store.policy, TemporalImportancePolicy) and plan.highest_preempted:
        # A temporal refusal names *a* blocker: live, blocking, and no
        # higher than the plan's maximum.
        assert 0.0 < highest <= plan.blocking_importance, tag
        assert highest >= incoming, tag
    return plan


def churn(name, seed, *, lifetimes, tick, steps=900, probes_per_step=2):
    """Seeded churn of one store; every arrival is probed before it is offered."""
    rng = random.Random(seed)
    store = StorageUnit(CAPACITY, POLICIES[name](), name=name)
    outcomes = set()
    floor_answers = TALLY.floor
    now = 0.0
    for step in range(steps):
        now += tick(rng)
        store.importance_index.advance(now)
        for k in range(probes_per_step):
            # Probes of many sizes and importances, including objects
            # larger than the unit and importance-zero arrivals.
            probe = StoredObject(
                size=rng.choice((1, 50, 900, 4000, 20_000, CAPACITY, CAPACITY + 1)),
                t_arrival=now,
                lifetime=lifetimes(rng) if rng.random() < 0.8 else DiracImportance(),
                object_id=f"p-{step}-{k}",
            )
            before = index_snapshot(store)
            # RandomPolicy's probe rewinds its RNG, so the plan drawn next
            # is the plan scored — what ``BesteffsCluster.offer`` relies on.
            plan = assert_probe_is_the_plan(store, probe, now, tag=f"{name} step {step}")
            assert index_snapshot(store) == before
            outcomes.add(plan.reason)
        obj = StoredObject(
            size=rng.randint(100, 6000), t_arrival=now,
            lifetime=lifetimes(rng), object_id=f"o-{step}",
        )
        store.offer(obj, now)
        if step % 7 == 0 and len(store):
            store.remove(rng.choice(sorted(o.object_id for o in store.iter_residents())), now)
        if step % 200 == 0:
            assert store.importance_index.check(now)
    return store, outcomes, TALLY.floor - floor_answers


@pytest.mark.parametrize("name", list(POLICIES))
def test_probe_equals_plan_on_grid(name):
    """Integer-minute churn: the temporal score comes from the merge heads."""
    store, outcomes, floor_answers = churn(
        name, 2027, lifetimes=random_grid_lifetime, tick=lambda rng: float(rng.randrange(0, 30))
    )
    assert "free-space" in outcomes and "object-too-large" in outcomes
    if name.startswith("temporal"):
        assert {"preempt", "full-for-importance", "expired-only"} <= outcomes
        assert store.importance_index.groups.family_count > 0
        assert floor_answers == GRID_FLOOR_ANSWERS[name]
    else:
        assert floor_answers == 0


@pytest.mark.parametrize("name", ["temporal", "temporal-lax", "greedy-size"])
def test_probe_equals_plan_off_grid(name):
    """Fractional clocks: the merge declines and the probe falls back to the plan."""
    _store, outcomes, floor_answers = churn(
        name, 99, lifetimes=random_lifetime, tick=lambda rng: rng.uniform(0.0, 25.0), steps=500
    )
    assert {"preempt", "full-for-importance"} <= outcomes
    assert floor_answers == OFF_GRID_FLOOR_ANSWERS.get(name, 0)


@pytest.mark.parametrize("strict", [True, False])
def test_probe_equals_plan_under_a_regressing_clock(strict):
    rng = random.Random(5)
    store = StorageUnit(CAPACITY, TemporalImportancePolicy(strict=strict))
    floor_answers = TALLY.floor
    now = 0.0
    for step in range(300):
        now += float(rng.randrange(0, 40))
        obj = StoredObject(
            size=rng.randint(500, 6000), t_arrival=now,
            lifetime=random_grid_lifetime(rng), object_id=f"o-{step}",
        )
        store.offer(obj, now)
        # Probe the past (the index rebuilds; before the newest family
        # arrival the merge declines), then the present again.
        past = max(0.0, now - float(rng.randrange(1, 500)))
        for t in (past, now):
            probe = StoredObject(
                size=rng.choice((900, 4000, 20_000)), t_arrival=t,
                lifetime=random_grid_lifetime(rng), object_id=f"p-{step}-{t}",
            )
            assert_probe_is_the_plan(store, probe, t, tag=f"step {step} t={t}")
        assert store.importance_index.check(now)
    assert TALLY.floor - floor_answers == REGRESSING_FLOOR_ANSWERS[strict]


def test_scan_oracle_probes_through_the_plan():
    """The full-scan reference declines the score query: same answers."""
    rng = random.Random(8)
    fast = StorageUnit(CAPACITY, TemporalImportancePolicy())
    naive = oracle_store(CAPACITY, TemporalImportancePolicy())
    now = 0.0
    for step in range(400):
        now += float(rng.randrange(0, 30))
        obj = StoredObject(
            size=rng.randint(100, 6000), t_arrival=now,
            lifetime=random_grid_lifetime(rng), object_id=f"o-{step}",
        )
        incoming = obj.importance_at(now)
        scored = fast.policy.probe(fast, obj, now, incoming)
        reference = naive.policy.probe(naive, obj, now, incoming)
        assert scored[0] == reference[0]
        if scored[0]:
            assert scored[1].hex() == reference[1].hex()
        fast.offer(obj, now)
        naive.offer(obj, now)


# -- hand-built corner cases -------------------------------------------------


def two_step(p, persist, wane):
    return TwoStepImportance(p=p, t_persist=float(persist), t_wane=float(wane))


def filled(*residents, capacity=1000, strict=True):
    store = StorageUnit(capacity, TemporalImportancePolicy(strict=strict))
    for i, (size, t_arrival, lifetime) in enumerate(residents):
        result = store.offer(
            StoredObject(size=size, t_arrival=float(t_arrival), lifetime=lifetime,
                         object_id=f"r{i}"),
            float(t_arrival),
        )
        assert result.admitted
    return store


def probe_of(size, now, lifetime):
    return StoredObject(size=size, t_arrival=float(now), lifetime=lifetime, object_id="probe")


class TestCornerCases:
    def test_expired_only_store_answers_direct(self):
        store = filled((400, 0, two_step(1.0, 10, 10)), (600, 0, two_step(0.5, 5, 5)))
        plan = assert_probe_is_the_plan(store, probe_of(700, 100, two_step(0.1, 5, 5)), 100.0)
        assert plan.reason == "expired-only"
        # Even an importance-zero arrival displaces dead weight.
        assert_probe_is_the_plan(store, probe_of(1000, 100, DiracImportance()), 100.0)

    def test_needed_exactly_a_prefix_sum(self):
        # Victim order at t=30: r0 (waned lowest), r1, r2; sizes 200/300/500.
        store = filled(
            (200, 0, two_step(1.0, 10, 40)),
            (300, 5, two_step(1.0, 10, 40)),
            (500, 10, two_step(1.0, 10, 40)),
        )
        strong = ConstantImportance(p=1.0)
        for size in (199, 200, 201, 499, 500, 501, 1000):
            plan = assert_probe_is_the_plan(store, probe_of(size, 30, strong), 30.0,
                                            tag=f"size {size}")
            assert plan.admit

    def test_expired_bytes_exactly_cover_the_need(self):
        store = filled((300, 0, two_step(1.0, 5, 5)), (700, 0, ConstantImportance(p=0.9)))
        for size in (299, 300, 301):
            plan = assert_probe_is_the_plan(
                store, probe_of(size, 50, two_step(0.5, 5, 5)), 50.0, tag=f"size {size}"
            )
            assert plan.admit == (size <= 300)

    def test_live_importance_zero_residents_never_block(self):
        store = filled((600, 0, ConstantImportance(p=0.0)), (400, 0, ConstantImportance(p=0.7)))
        plan = assert_probe_is_the_plan(store, probe_of(500, 10, DiracImportance()), 10.0)
        assert plan.admit and plan.highest_preempted == 0.0
        plan = assert_probe_is_the_plan(store, probe_of(700, 10, DiracImportance()), 10.0)
        assert not plan.admit

    def test_prefix_crosses_families_and_groups(self):
        store = filled(
            (150, 0, two_step(0.4, 10, 20)),                      # family (0.4, 20)
            (150, 0, two_step(0.8, 10, 40)),                      # family (0.8, 40)
            (150, 0, FixedLifetimeImportance(p=0.3, expire_after=500.0)),
            (150, 0, ConstantImportance(p=0.2)),                  # group
            (150, 0, ConstantImportance(p=0.6)),                  # group
            (250, 0, two_step(1.0, 100, 100)),
        )
        groups = store.importance_index.groups
        assert groups.family_count >= 3 and groups.group_count >= 2
        for now in (0.0, 15.0, 25.0, 45.0):
            for p in (0.0, 0.25, 0.5, 0.7, 1.0):
                for size in (100, 150, 300, 450, 700, 1000):
                    lifetime = ConstantImportance(p=p) if p else DiracImportance()
                    assert_probe_is_the_plan(
                        store, probe_of(size, now, lifetime), now, tag=f"t={now} p={p} {size}"
                    )

    @pytest.mark.parametrize("strict", [True, False])
    def test_equal_importance_is_the_strictness_boundary(self, strict):
        store = filled((1000, 0, ConstantImportance(p=0.5)), strict=strict)
        plan = assert_probe_is_the_plan(store, probe_of(10, 5, ConstantImportance(p=0.5)), 5.0)
        assert plan.admit == (not strict)

    def test_object_larger_than_the_unit(self):
        store = filled((500, 0, two_step(1.0, 5, 5)))
        plan = assert_probe_is_the_plan(store, probe_of(1001, 100, ConstantImportance(p=1.0)),
                                        100.0)
        assert plan.reason == "object-too-large"


# -- the cached floor ----------------------------------------------------------


def scored(store, obj, now):
    """``(plan, answered by the floor)`` for one probe held to its plan."""
    before = TALLY.floor
    plan = assert_probe_is_the_plan(store, obj, now, tag=f"t={now}")
    return plan, TALLY.floor > before


class TestCachedFloor:
    """Where the cached floor must answer, where it must decline, and when
    it must be dropped."""

    @pytest.mark.parametrize("strict", [True, False])
    def test_head_exactly_r_star_minutes_before_expiry(self, strict):
        # p == level: strict blocks only at p itself (r* = t_wane), lax never.
        store = filled((1000, 0, two_step(0.5, 10, 20)), strict=strict)
        groups = store.importance_index.groups
        (family,) = groups._families.values()
        assert _blocking_rem(family.p, family.t_wane, 0.5, strict) == (20.0 if strict else math.inf)
        level = probe_of(100, 0, ConstantImportance(p=0.5))
        plan, by_floor = scored(store, level, 10.0)  # E - r* = 30 - 20
        assert (plan.admit, by_floor) == ((False, True) if strict else (True, False))
        plan, by_floor = scored(store, level, 11.0)  # r* - 1 minutes left
        assert plan.admit and not by_floor

    @pytest.mark.parametrize("strict, r_star", [(True, 12.0), (False, 13.0)])
    def test_r_star_inside_the_wane(self, strict, r_star):
        # linear_wane(0.5, 12, 20) == 0.3: it blocks 0.3 strictly, not laxly.
        store = filled((1000, 0, two_step(0.5, 10, 20)), strict=strict)
        (family,) = store.importance_index.groups._families.values()
        assert _blocking_rem(family.p, family.t_wane, 0.3, strict) == r_star
        level = probe_of(100, 0, ConstantImportance(p=0.3))
        for now, refused in ((30.0 - r_star - 5, True), (30.0 - r_star, True),
                             (31.0 - r_star, False)):
            plan, by_floor = scored(store, level, now)
            assert (plan.admit, by_floor) == (not refused, refused), now

    def test_squatting_expired_residents_are_not_blockers(self):
        store = filled(
            (300, 0, two_step(1.0, 5, 5)),           # expired from t = 10 on
            (300, 15, two_step(1.0, 5, 5)),          # same family, E = 25
            (400, 0, ConstantImportance(p=0.9)),
        )
        # The family's first *live* member bounds it: E 25 - r* 3 = 22.
        level = probe_of(500, 0, ConstantImportance(p=0.5))
        plan, by_floor = scored(store, level, 20.0)
        assert not plan.admit and by_floor
        plan, by_floor = scored(store, level, 23.0)
        assert plan.admit and not by_floor
        # The expired bytes alone cover a small need: no floor question.
        plan, by_floor = scored(store, probe_of(300, 0, ConstantImportance(p=0.5)), 23.0)
        assert plan.reason == "expired-only" and not by_floor

    @pytest.mark.parametrize("weak", [ConstantImportance(p=0.0), two_step(0.0, 50, 50)])
    def test_a_live_importance_zero_resident_disarms_the_floor(self, weak):
        store = filled((200, 0, weak), (800, 0, ConstantImportance(p=0.9)))
        for size in (100, 300):
            plan, by_floor = scored(store, probe_of(size, 0, ConstantImportance(p=0.5)), 10.0)
            assert plan.admit == (size <= 200) and not by_floor

    def test_a_family_below_the_level_disarms_the_floor(self):
        store = filled((200, 0, two_step(0.3, 50, 50)), (800, 0, ConstantImportance(p=0.9)))
        (family,) = store.importance_index.groups._families.values()
        assert _blocking_rem(family.p, family.t_wane, 0.5, True) == math.inf
        plan, by_floor = scored(store, probe_of(100, 0, ConstantImportance(p=0.5)), 10.0)
        assert plan.admit and not by_floor
        plan, by_floor = scored(store, probe_of(100, 0, ConstantImportance(p=0.2)), 10.0)
        assert not plan.admit and by_floor

    def test_a_group_is_bound_by_its_oldest_live_stable_end(self):
        off_grid = two_step(0.8, 10, 10)
        store = filled((500, 0.5, off_grid), (500, 3.25, off_grid))
        assert not store.importance_index.groups.family_count
        level = probe_of(100, 0, ConstantImportance(p=0.5))
        for now in (0.75, 7.0, 10.5):
            plan, by_floor = scored(store, level, now)
            assert not plan.admit and by_floor, now
        # Past the oldest member's persist window the merge decides (its
        # wane still blocks at 10.75).
        plan, by_floor = scored(store, level, 10.75)
        assert not plan.admit and not by_floor

    def test_a_probe_before_the_newest_family_arrival_plans(self):
        store = filled((500, 0, two_step(1.0, 50, 50)), (500, 40, two_step(1.0, 50, 50)))
        merges = TALLY.merge
        plan, by_floor = scored(store, probe_of(100, 30, ConstantImportance(p=0.5)), 30.0)
        assert not plan.admit and not by_floor and TALLY.merge == merges

    def test_the_cache_drops_on_add_and_discard(self):
        store = filled((500, 0, ConstantImportance(p=0.9)), (500, 0, ConstantImportance(p=0.8)))
        plan, by_floor = scored(store, probe_of(200, 0, ConstantImportance(p=0.5)), 5.0)
        assert not plan.admit and by_floor
        # A weak arrival ends the refusal: the cached answer must not outlive it.
        store.remove("r1", 6.0)
        store.offer(StoredObject(size=300, t_arrival=6.0, lifetime=ConstantImportance(p=0.1),
                                 object_id="weak"), 6.0)
        plan, by_floor = scored(store, probe_of(400, 0, ConstantImportance(p=0.5)), 7.0)
        assert plan.admit and not by_floor
        # Once it leaves, the floor answers again instead of keeping its -inf.
        store.remove("weak", 8.0)
        plan, by_floor = scored(store, probe_of(600, 0, ConstantImportance(p=0.5)), 9.0)
        assert not plan.admit and by_floor

    def test_the_cache_drops_on_a_clock_regression(self):
        # r0 expires at t = 20.  At 25 the floor caches "r1 blocks 0.5 for
        # ever"; at 18 r0 is live, waned to 0.2, and covers a smaller need.
        store = filled((400, 0, two_step(1.0, 10, 10)), (600, 0, ConstantImportance(p=0.9)))
        plan, by_floor = scored(store, probe_of(500, 0, ConstantImportance(p=0.5)), 25.0)
        assert not plan.admit and by_floor
        plan, by_floor = scored(store, probe_of(300, 0, ConstantImportance(p=0.5)), 18.0)
        assert plan.admit and not by_floor

    def test_an_expired_group_member_does_not_bound_the_group(self):
        off_grid = two_step(0.8, 10, 10)  # r0 expires at 20.5; r1 is stable to 25.25
        store = filled((300, 0.5, off_grid), (700, 15.25, off_grid))
        plan, by_floor = scored(store, probe_of(400, 0, ConstantImportance(p=0.5)), 22.0)
        assert not plan.admit and by_floor

    def test_a_group_stable_end_is_rounded_as_the_phase_predicate(self):
        # 0.1 + 0.2 rounds up: at that instant the resident is 0.20000000000000004
        # old, past its 0.2-minute persist window, and no longer blocks 0.8.
        lifetime = TwoStepImportance(p=0.8, t_persist=0.2, t_wane=0.5)
        store = filled((1000, 0.1, lifetime))
        now = 0.1 + 0.2
        assert now - 0.1 > 0.2
        level = probe_of(100, 0, ConstantImportance(p=0.8))
        plan, by_floor = scored(store, level, math.nextafter(now, 0.0))
        assert not plan.admit and by_floor
        plan, by_floor = scored(store, level, now)
        assert plan.admit and not by_floor


# -- property: random small stores on the grid -------------------------------

grid_lifetimes = st.one_of(
    st.builds(
        two_step,
        st.sampled_from((0.0, 0.25, 0.5, 1.0)),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
    ),
    st.builds(
        lambda p, expire: FixedLifetimeImportance(p=p, expire_after=float(expire)),
        st.sampled_from((0.25, 0.5, 1.0)),
        st.integers(min_value=0, max_value=60),
    ),
    st.builds(lambda p: ConstantImportance(p=p), st.sampled_from((0.0, 0.25, 0.5, 1.0))),
    st.just(DiracImportance()),
)


@settings(max_examples=150, deadline=None)
@given(
    residents=st.lists(
        st.tuples(st.integers(1, 400), st.integers(0, 60), grid_lifetimes), max_size=12
    ),
    size=st.integers(1, 1100),
    lifetime=grid_lifetimes,
    now=st.one_of(st.integers(0, 160).map(float), st.floats(0.0, 160.0, allow_nan=False)),
    strict=st.booleans(),
)
def test_probe_is_the_plan_property(residents, size, lifetime, now, strict):
    store = StorageUnit(1000, TemporalImportancePolicy(strict=strict))
    for i, (rsize, t_arrival, rlifetime) in enumerate(sorted(residents, key=lambda r: r[1])):
        store.offer(
            StoredObject(size=rsize, t_arrival=float(t_arrival), lifetime=rlifetime,
                         object_id=f"r{i}"),
            float(t_arrival),
        )
    probe = StoredObject(size=size, t_arrival=now, lifetime=lifetime, object_id="probe")
    assert_probe_is_the_plan(store, probe, now)
    assert store.importance_index.check(max(now, store.importance_index._now))

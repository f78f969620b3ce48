"""Differential testing: the store must be bit-identical to its scan oracle.

Twin :class:`StorageUnit` instances — the real one, and one with the
full-scan oracles of :mod:`tests.oracles` injected — are fed identical
randomized workloads (mixed annotation shapes, expiries, preemption
pressure, manual removals, expiry sweeps and density probes).  At every
step the admission plans, eviction records, occupancy, per-creator totals
and densities must agree **exactly**: the index is an acceleration
structure, never a behaviour change.  Every workload keeps the unit clock:
whole-minute arrivals, decisions, reads and annotation durations, never
backwards; user-defined and non-linear annotations keep annotation groups
populated, and density reads ahead of the clock are taken on a copy, since
a read moves it.
"""

import copy
import hashlib
import math
import random

import pytest

from repro.core.density import admission_threshold, importance_density
from repro.core.importance import (
    ConstantImportance,
    DiracImportance,
    ExponentialWaneImportance,
    FixedLifetimeImportance,
    PiecewiseLinearImportance,
    StepWaneImportance,
    TwoStepImportance,
)
from repro.core.index import PHASE_EXPIRED, ImportanceIndex
from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from tests.oracles import ScanIndex, oracle_store
from tests.oracles.scaled import Scaled

CAPACITY = 50_000


def random_lifetime(rng: random.Random):
    """Mixed shapes, all in annotation groups: the two-step and fixed
    lifetimes come wrapped in a :class:`Scaled` of factor 1 (the same
    importance, but an annotation the unit cannot file in a family)."""
    p = rng.choice((0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0)) or 0.05
    persist = float(round(rng.uniform(0.0, 400.0)))
    wane = float(round(rng.uniform(0.0, 300.0)))
    kind = rng.randrange(8)
    if kind == 0:
        return ConstantImportance(p=p)
    if kind == 1:
        return DiracImportance()
    if kind == 2:
        return Scaled(FixedLifetimeImportance(p=p, expire_after=persist), 1.0)
    if kind == 3:
        return ExponentialWaneImportance(p=p, t_persist=persist, t_wane=wane or 1.0)
    if kind == 4:
        return StepWaneImportance(p=p, t_persist=persist, t_wane=wane or 1.0, steps=3)
    if kind == 5:
        knots = sorted(float(round(rng.uniform(0.0, 500.0))) for _ in range(3))
        for i in (1, 2):  # strictly increasing once rounded
            knots[i] = max(knots[i], knots[i - 1] + 1.0)
        vals = sorted((rng.uniform(0.0, p) for _ in range(3)), reverse=True)
        return PiecewiseLinearImportance(list(zip(knots, vals)) + [(knots[-1] + 50.0, 0.0)])
    if kind == 6:
        return Scaled(
            TwoStepImportance(p=p, t_persist=persist, t_wane=wane), rng.uniform(0.1, 1.0)
        )
    return Scaled(TwoStepImportance(p=p, t_persist=persist, t_wane=wane), 1.0)


def density_ahead(store, t):
    """The density ``store`` would read at ``t``, taken on a copy: a read
    moves the unit's clock, and the workload decides before ``t`` again."""
    return importance_density(copy.deepcopy(store), t)


def assert_plans_equal(naive, indexed, step):
    assert naive.admit == indexed.admit, f"step {step}: admit verdicts differ"
    assert [v.object_id for v in naive.victims] == [
        v.object_id for v in indexed.victims
    ], f"step {step}: victim lists differ"
    assert naive.highest_preempted == indexed.highest_preempted, f"step {step}"
    assert naive.blocking_importance == indexed.blocking_importance, f"step {step}"
    assert naive.reason == indexed.reason, f"step {step}"


def assert_evictions_equal(naive, indexed, step):
    assert len(naive) == len(indexed), f"step {step}: eviction counts differ"
    for mine, theirs in zip(naive, indexed):
        assert mine.object_id == theirs.object_id, f"step {step}"
        assert mine.importance_at_eviction == theirs.importance_at_eviction, f"step {step}"
        assert mine.reason == theirs.reason, f"step {step}"
        assert mine.t_evicted == theirs.t_evicted, f"step {step}"


@pytest.mark.parametrize("seed", [1234, 777, 2026])
def test_randomized_workload_is_bit_identical(seed):
    rng = random.Random(seed)
    naive = oracle_store(CAPACITY, TemporalImportancePolicy(), name="naive")
    fast = StorageUnit(CAPACITY, TemporalImportancePolicy(), name="fast")
    assert isinstance(naive.importance_index, ScanIndex)
    assert isinstance(fast.importance_index, ImportanceIndex)

    now = 0.0
    for step in range(1500):
        now += float(round(rng.uniform(0.0, 25.0)))
        action = rng.random()
        if action < 0.70:
            obj = StoredObject(
                size=rng.randint(100, 6000),
                t_arrival=now,
                lifetime=random_lifetime(rng),
                object_id=f"o-{step}",
            )
            plan_n = naive.peek_admission(obj, now)
            plan_f = fast.peek_admission(obj, now)
            assert_plans_equal(plan_n, plan_f, step)
            res_n = naive.offer(obj, now)
            res_f = fast.offer(obj, now)
            assert res_n.admitted == res_f.admitted, f"step {step}"
            assert_plans_equal(res_n.plan, res_f.plan, step)
            assert_evictions_equal(res_n.evictions, res_f.evictions, step)
        elif action < 0.80:
            assert_evictions_equal(
                naive.reclaim_expired(now), fast.reclaim_expired(now), step
            )
        elif action < 0.90 and len(naive):
            victim = rng.choice(sorted(o.object_id for o in naive.iter_residents()))
            rec_n = naive.remove(victim, now)
            rec_f = fast.remove(victim, now)
            assert_evictions_equal([rec_n], [rec_f], step)
        else:
            # Density probes — sometimes ahead of the clock.
            read = density_ahead if rng.random() < 0.2 else importance_density
            probe_t = now + float(round(rng.uniform(0.0, 50.0))) if read is density_ahead else now
            d_naive = read(naive, probe_t)
            d_fast = read(fast, probe_t)
            assert d_naive.hex() == d_fast.hex(), (
                f"step {step}: density drifted at t={probe_t}"
            )

        assert naive.used_bytes == fast.used_bytes, f"step {step}"
        assert list(naive.iter_residents()) == list(fast.iter_residents()), f"step {step}"
        assert naive.bytes_by_creator() == fast.bytes_by_creator(), f"step {step}"
        if step % 250 == 0:
            assert fast.importance_index.check(now)

    # Drain everything: an empty indexed store carries exactly zero mass.
    final = now + 1e6
    naive.reclaim_expired(final)
    fast.reclaim_expired(final)
    assert importance_density(naive, final) == importance_density(fast, final)


def random_grid_lifetime(rng: random.Random):
    """Annotations on the integer-minute grid (the workloads' habitat).

    Mostly two-step/fixed shapes so the index's superfamily merge — the
    lazy k-way heap over ``(p, t_wane)`` families — carries the victim
    scan, with enough other shapes mixed in to keep solo groups and the
    fallback populated.
    """
    p = rng.choice((0.05, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0))
    persist = float(rng.randrange(0, 400))
    wane = float(rng.randrange(0, 300))
    kind = rng.randrange(10)
    if kind == 0:
        return ConstantImportance(p=p)
    if kind == 1:
        return DiracImportance()
    if kind == 2:
        return ExponentialWaneImportance(p=p, t_persist=persist, t_wane=wane or 1.0)
    if kind == 3:
        return Scaled(
            TwoStepImportance(p=p, t_persist=persist, t_wane=wane),
            rng.choice((0.25, 0.5, 0.75)),
        )
    if kind in (4, 5):
        return FixedLifetimeImportance(p=p, expire_after=persist)
    return TwoStepImportance(p=p, t_persist=persist, t_wane=wane)


@pytest.mark.parametrize("seed", [31337, 2468])
def test_integer_grid_workload_is_bit_identical(seed):
    """Whole-minute twin workload: the superfamily greedy path vs naive.

    Arrivals and probes stay on the integer grid, exactly like the
    lecture/university workloads, so the real store answers admission
    plans from the grouped/superfamily merge rather than the sorted
    fallback — and must still match the scan oracle bit for bit.
    """
    rng = random.Random(seed)
    naive = oracle_store(CAPACITY, TemporalImportancePolicy(), name="naive")
    fast = StorageUnit(CAPACITY, TemporalImportancePolicy(), name="fast")

    now = 0.0
    for step in range(1200):
        now += float(rng.randrange(0, 30))
        action = rng.random()
        if action < 0.75:
            obj = StoredObject(
                size=rng.randint(100, 6000),
                t_arrival=now,
                lifetime=random_grid_lifetime(rng),
                object_id=f"g-{step}",
            )
            plan_n = naive.peek_admission(obj, now)
            plan_f = fast.peek_admission(obj, now)
            assert_plans_equal(plan_n, plan_f, step)
            res_n = naive.offer(obj, now)
            res_f = fast.offer(obj, now)
            assert res_n.admitted == res_f.admitted, f"step {step}"
            assert_plans_equal(res_n.plan, res_f.plan, step)
            assert_evictions_equal(res_n.evictions, res_f.evictions, step)
        elif action < 0.85:
            assert_evictions_equal(
                naive.reclaim_expired(now), fast.reclaim_expired(now), step
            )
        elif action < 0.92 and len(naive):
            victim = rng.choice(sorted(o.object_id for o in naive.iter_residents()))
            assert_evictions_equal(
                [naive.remove(victim, now)], [fast.remove(victim, now)], step
            )
        else:
            for read, probe in ((importance_density, now), (density_ahead, now + 1.0)):
                assert (
                    read(naive, probe).hex() == read(fast, probe).hex()
                ), f"step {step}: density drifted at t={probe}"
        assert naive.used_bytes == fast.used_bytes, f"step {step}"
        if step % 300 == 0:
            assert fast.importance_index.check(now)
    # The grid workload must actually have exercised the superfamily path.
    assert fast.importance_index.groups.family_count > 0


@pytest.mark.parametrize("seed", [7, 8])
def test_dirac_residents_sit_expired_and_off_the_heap(seed):
    """A Dirac resident is expired from its arrival, so the index never
    reads its ``stable_until``: it sits in the expired phase with no
    breakpoint entry, and a twin workload where half the arrivals are Dirac
    still decides like the scan oracle."""
    rng = random.Random(seed)
    naive = oracle_store(CAPACITY, TemporalImportancePolicy(), name="naive")
    fast = StorageUnit(CAPACITY, TemporalImportancePolicy(), name="fast")
    index = fast.importance_index
    now = 0.0
    for step in range(600):
        now += float(rng.randrange(0, 20))
        if rng.random() < 0.85:
            lifetime = DiracImportance() if rng.random() < 0.5 else random_lifetime(rng)
            obj = StoredObject(
                size=rng.randint(100, 6000), t_arrival=now, lifetime=lifetime,
                object_id=f"d-{step}",
            )
            res_n = naive.offer(obj, now)
            res_f = fast.offer(obj, now)
            assert res_n.admitted == res_f.admitted, f"step {step}"
            assert_plans_equal(res_n.plan, res_f.plan, step)
            assert_evictions_equal(res_n.evictions, res_f.evictions, step)
        else:
            assert_evictions_equal(
                naive.reclaim_expired(now), fast.reclaim_expired(now), step
            )
        dirac = [rec for rec in index.residents.values()
                 if type(rec.obj.lifetime) is DiracImportance]
        assert all(rec.phase == PHASE_EXPIRED for rec in dirac), f"step {step}"
        armed = {id(rec) for _t, _seq, rec in index._heap if rec.obj is not None}
        assert not armed & {id(rec) for rec in dirac}, f"step {step}"
        assert naive.used_bytes == fast.used_bytes, f"step {step}"
        assert list(naive.iter_residents()) == list(fast.iter_residents()), f"step {step}"
    assert index.check(now)


#: ``_decision_digest`` literals: ``(seed, grid) -> sha256``.  The grid
#: regime files its two-step and fixed residents in victim families; the
#: other files every resident in an annotation group (two-step and fixed
#: lifetimes wrapped in ``Scaled(..., 1.0)``).  Both were re-recorded when
#: durations and reads moved onto whole minutes: that regime's durations
#: are its old draws rounded, and the look-ahead read moved from
#: ``now + 0.5`` to ``now + 1.0``; the code before that change gives the
#: same two digests on these inputs.
PINNED_DECISIONS = {
    (31337, True): "77b574b709b7afbc69c3cd1ef992d883713d7c0f7b61ed392ceb6545bde1fdee",
    (1234, False): "66923a4057e4cb4e3382ed8a7629490bf50f256431f8988039abb27cc4e5dd79",
}


def _decision_digest(seed: int, grid: bool) -> str:
    """sha256 over every offer's verdict, reason, highest preempted
    importance and evictions, plus density probes now and ahead of the
    clock (the look-ahead probes read a copy of the unit)."""
    rng = random.Random(seed)
    lifetime = random_grid_lifetime if grid else random_lifetime
    store = StorageUnit(CAPACITY, TemporalImportancePolicy(), name="pin")
    digest = hashlib.sha256()
    now = 0.0
    for step in range(1500):
        now += float(rng.randrange(0, 30)) if grid else float(round(rng.uniform(0.0, 25.0)))
        obj = StoredObject(
            size=rng.randint(100, 6000), t_arrival=now,
            lifetime=lifetime(rng), object_id=f"p-{step}",
        )
        result = store.offer(obj, now)
        plan = result.plan
        digest.update(repr((
            result.admitted, plan.reason, plan.highest_preempted.hex(),
            [record.object_id for record in result.evictions],
        )).encode())
        if step % 5 == 0:
            digest.update(importance_density(store, now).hex().encode())
            for probe in (now + 1.0, now + 7.0):
                digest.update(density_ahead(store, probe).hex().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed, grid", PINNED_DECISIONS)
def test_decisions_and_densities_match_their_pin(seed, grid):
    assert _decision_digest(seed, grid) == PINNED_DECISIONS[seed, grid]


@pytest.mark.parametrize("seed", [5, 99])
def test_admission_threshold_matches_the_linear_scan(seed):
    """Binary search must return what the retired 101-step scan returned."""
    rng = random.Random(seed)
    store = StorageUnit(CAPACITY, TemporalImportancePolicy(), name="thr")
    now = 0.0
    for step in range(120):
        now += float(round(rng.uniform(0.0, 30.0)))
        store.offer(
            StoredObject(
                size=rng.randint(500, 8000),
                t_arrival=now,
                lifetime=random_lifetime(rng),
                object_id=f"o-{step}",
            ),
            now,
        )
        probe_size = rng.randint(1000, 20_000)
        fast = admission_threshold(store, probe_size, now)
        assert fast == _linear_scan_threshold(store, probe_size, now)


def _linear_scan_threshold(store, probe_size, now):
    """The pre-optimisation reference implementation, verbatim."""
    admissible = float("inf")
    for step in range(100, -1, -1):
        importance = step / 100.0
        probe = StoredObject(
            size=probe_size,
            t_arrival=now,
            lifetime=FixedLifetimeImportance(p=importance, expire_after=1.0)
            if importance > 0.0
            else FixedLifetimeImportance(p=0.0, expire_after=0.0),
            object_id=f"__probe-{step}",
        )
        plan = store.peek_admission(probe, now)
        if plan.admit:
            admissible = importance
        else:
            break
    return admissible


def test_indexed_and_naive_agree_on_an_empty_and_full_store():
    for build in (oracle_store, StorageUnit):
        store = build(1000, TemporalImportancePolicy())
        assert importance_density(store, 0.0) == 0.0
        store.offer(
            StoredObject(
                size=1000, t_arrival=0.0,
                lifetime=ConstantImportance(p=1.0), object_id="all",
            ),
            0.0,
        )
        assert math.isinf(admission_threshold(store, 500, 0.0))
        assert importance_density(store, 1e9) == 1.0

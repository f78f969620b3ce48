"""Differential testing: the store must be bit-identical to its scan oracle.

Twin :class:`StorageUnit` instances — the real one, and one with the
full-scan oracles of :mod:`tests.oracles` injected — are fed identical
randomized workloads (mixed annotation shapes, expiries, preemption
pressure, manual removals, expiry sweeps and density probes).  At every
step the admission plans, eviction records, occupancy, per-creator totals
and densities must agree **exactly**: the index is an acceleration
structure, never a behaviour change.
"""

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
    ScaledImportance,
    StepWaneImportance,
    TwoStepImportance,
)
from repro.core.index import ImportanceIndex
from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from tests.oracles import ScanIndex, oracle_store

CAPACITY = 50_000


def random_lifetime(rng: random.Random):
    p = rng.choice((0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0)) or 0.05
    persist = rng.uniform(0.0, 400.0)
    wane = rng.uniform(0.0, 300.0)
    kind = rng.randrange(8)
    if kind == 0:
        return ConstantImportance(p=p)
    if kind == 1:
        return DiracImportance()
    if kind == 2:
        return FixedLifetimeImportance(p=p, expire_after=persist)
    if kind == 3:
        return ExponentialWaneImportance(p=p, t_persist=persist, t_wane=wane or 1.0)
    if kind == 4:
        return StepWaneImportance(p=p, t_persist=persist, t_wane=wane or 1.0, steps=3)
    if kind == 5:
        knots = sorted(rng.uniform(0.0, 500.0) for _ in range(3))
        vals = sorted((rng.uniform(0.0, p) for _ in range(3)), reverse=True)
        return PiecewiseLinearImportance(list(zip(knots, vals)) + [(knots[-1] + 50.0, 0.0)])
    if kind == 6:
        return ScaledImportance(
            TwoStepImportance(p=p, t_persist=persist, t_wane=wane), rng.uniform(0.1, 1.0)
        )
    return TwoStepImportance(p=p, t_persist=persist, t_wane=wane)


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
        assert mine.obj.object_id == theirs.obj.object_id, f"step {step}"
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
        now += rng.uniform(0.0, 25.0)
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
            # Density probes — sometimes in the past, exercising rebuilds.
            probe_t = now - rng.uniform(0.0, 50.0) if rng.random() < 0.2 else now
            probe_t = max(0.0, probe_t)
            d_naive = importance_density(naive, probe_t)
            d_fast = importance_density(fast, probe_t)
            assert d_naive.hex() == d_fast.hex(), (
                f"step {step}: density drifted at t={probe_t}"
            )

        assert naive.used_bytes == fast.used_bytes, f"step {step}"
        assert list(naive.iter_residents()) == list(fast.iter_residents()), f"step {step}"
        assert naive.bytes_by_creator() == fast.bytes_by_creator(), f"step {step}"
        if step % 250 == 0:
            assert fast.importance_index.check(max(now, fast.importance_index._now))

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
        return ScaledImportance(
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
            # Off the grid too: a family's waning slice must answer there.
            for probe in (now, now + 0.5):
                assert (
                    importance_density(naive, probe).hex()
                    == importance_density(fast, probe).hex()
                ), f"step {step}: density drifted at t={probe}"
        assert naive.used_bytes == fast.used_bytes, f"step {step}"
        if step % 300 == 0:
            assert fast.importance_index.check(max(now, fast.importance_index._now))
    # The grid workload must actually have exercised the superfamily path.
    assert fast.importance_index.groups.family_count > 0


#: ``_decision_digest`` literals recorded before waning two-step residents
#: moved into their victim families: ``(seed, grid) -> sha256``.
PINNED_DECISIONS = {
    (31337, True): "8665995038c98f24fbe5e32977ad08e127a1c6b65a6afc78fe05972dcc137753",
    (1234, False): "66652ce7008ccf3d1f23b59aa7909a3c3597985d7ff65b625bb7d6fb3034dd1d",
}


def _decision_digest(seed: int, grid: bool) -> str:
    """sha256 over every offer's verdict, reason, highest preempted
    importance and evictions, plus density probes on and off the grid (the
    forward and backward probes also force index rebuilds)."""
    rng = random.Random(seed)
    lifetime = random_grid_lifetime if grid else random_lifetime
    store = StorageUnit(CAPACITY, TemporalImportancePolicy(), name="pin")
    digest = hashlib.sha256()
    now = 0.0
    for step in range(1500):
        now += float(rng.randrange(0, 30)) if grid else rng.uniform(0.0, 25.0)
        obj = StoredObject(
            size=rng.randint(100, 6000), t_arrival=now,
            lifetime=lifetime(rng), object_id=f"p-{step}",
        )
        result = store.offer(obj, now)
        plan = result.plan
        digest.update(repr((
            result.admitted, plan.reason, plan.highest_preempted.hex(),
            [record.obj.object_id for record in result.evictions],
        )).encode())
        if step % 5 == 0:
            for probe in (now, now + 0.5, now + 7.0):
                digest.update(importance_density(store, probe).hex().encode())
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
        now += rng.uniform(0.0, 30.0)
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
        assert importance_density(store, 1e9) == 1.0
        assert math.isinf(admission_threshold(store, 500, 0.0))

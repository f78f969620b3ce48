"""Unit tests for the incremental importance index (repro.core.index)."""

import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.importance import (
    ConstantImportance,
    DiracImportance,
    ExponentialWaneImportance,
    FixedLifetimeImportance,
    PiecewiseLinearImportance,
    StepWaneImportance,
    TwoStepImportance,
    linear_wane,
)
from repro.core.index import (
    PHASE_CONSTANT,
    PHASE_EXPIRED,
    PHASE_WANING,
    DensityAccumulator,
    ImportanceIndex,
)
from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.errors import ReproError, SimulationError
from tests.conftest import make_obj
from tests.oracles import importance_order, victim_candidates
from tests.oracles.scaled import Scaled


class TestStableUntil:
    def test_constant_never_leaves_the_stable_prefix(self):
        assert ConstantImportance(p=0.7).stable_until == math.inf

    def test_dirac_is_trivially_stable(self):
        # Expired from age 0, a Dirac resident never enters the constant
        # phase, so the base class's safe default is never read.
        fn = DiracImportance()
        assert fn.is_expired(0.0) and fn.stable_until == 0.0

    def test_fixed_lifetime_is_stable_to_the_cliff(self):
        fn = FixedLifetimeImportance(p=0.4, expire_after=100.0)
        assert fn.stable_until == 100.0

    def test_wane_shapes_are_stable_through_t_persist(self):
        for fn in (
            TwoStepImportance(p=0.8, t_persist=50.0, t_wane=30.0),
            ExponentialWaneImportance(p=0.8, t_persist=50.0, t_wane=30.0),
            StepWaneImportance(p=0.8, t_persist=50.0, t_wane=30.0),
        ):
            assert fn.stable_until == 50.0
            # The invariant the index relies on: exact equality inside it.
            assert fn.importance_at(50.0) == fn.initial_importance

    def test_piecewise_is_stable_to_its_first_knot(self):
        fn = PiecewiseLinearImportance([(10.0, 0.9), (20.0, 0.0)])
        assert fn.stable_until == 10.0


class TestWaneCoefficients:
    """The wane is ``linear_wane(p, remaining, t_wane)``: ``u - v * age``
    with ``u = p * t_expire / t_wane`` and ``v = p / t_wane``."""

    def test_two_step_wane_is_linear(self):
        fn = TwoStepImportance(p=0.8, t_persist=50.0, t_wane=40.0)
        u, v = 0.8 * 90.0 / 40.0, 0.8 / 40.0
        for age in (55.0, 70.0, 89.9):
            assert fn.importance_at(age) == linear_wane(0.8, 90.0 - age, 40.0)
            assert u - v * age == pytest.approx(fn.importance_at(age), rel=1e-12)


class TestDensityAccumulator:
    def test_exact_mass_matches_fsum_and_cancels_exactly(self):
        acc = DensityAccumulator()
        terms = [0.1 * (i + 1) * 977 for i in range(200)]
        for term in terms:
            acc.add(term)
        assert acc.exact_mass() == math.fsum(terms)
        assert acc.exact_mass([0.25, 1e-30]) == math.fsum(terms + [0.25, 1e-30])
        # Removal adds each term's recomputed negation; the bits cancel.
        for i in range(len(terms)):
            acc.add(-(0.1 * (i + 1) * 977))
        assert acc.exact_mass() == 0.0


def two_step_obj(oid, size, t_arrival, p=0.8, persist=100.0, wane=50.0):
    return StoredObject(
        size=size,
        t_arrival=t_arrival,
        lifetime=TwoStepImportance(p=p, t_persist=persist, t_wane=wane),
        object_id=oid,
    )


class TestImportanceIndexPhases:
    def test_object_walks_constant_waning_expired(self):
        index = ImportanceIndex()
        obj = two_step_obj("a", 10, t_arrival=0.0)
        index.add(obj, 0.0)
        assert index.residents["a"].phase == PHASE_CONSTANT

        index.advance(100.0)  # still inside the stable prefix (age <= 100)
        assert index.residents["a"].phase == PHASE_CONSTANT

        index.advance(101.0)  # the first minute past it
        assert index.residents["a"].phase == PHASE_WANING

        index.advance(151.0)
        assert index.residents["a"].phase == PHASE_EXPIRED
        assert index.transitions == 2
        assert index.check(151.0)

    def test_admission_mid_life_classifies_directly(self):
        index = ImportanceIndex()
        index.add(two_step_obj("w", 10, t_arrival=0.0), 120.0)
        assert index.residents["w"].phase == PHASE_WANING
        index.add(two_step_obj("e", 10, t_arrival=0.0), 200.0)
        assert index.residents["e"].phase == PHASE_EXPIRED

    def test_dirac_objects_are_expired_on_arrival(self):
        index = ImportanceIndex()
        index.add(make_obj(1.0, lifetime=DiracImportance(), object_id="d"), 0.0)
        assert index.residents["d"].phase == PHASE_EXPIRED

    def test_constants_never_transition(self):
        index = ImportanceIndex()
        index.add(make_obj(1.0, lifetime=ConstantImportance(p=0.3), object_id="c"), 0.0)
        index.advance(1e12)
        assert index.residents["c"].phase == PHASE_CONSTANT
        assert index.transitions == 0

    def test_breakpoints_are_never_processed_late(self, monkeypatch):
        # After advance(t) at whole minutes around every breakpoint, each
        # live entry is scheduled at exactly the first minute its resident's
        # predicate phase flips, and every live entry popped is a
        # transition: nothing pops early and is pushed back.
        import repro.core.index as index_module

        order = {PHASE_CONSTANT: 0, PHASE_WANING: 1, PHASE_EXPIRED: 2}
        horizon = 10_000.0

        def phase(obj, t):
            if obj.is_expired_at(t):
                return PHASE_EXPIRED
            return PHASE_CONSTANT if obj.age_at(t) <= obj.lifetime.stable_until else PHASE_WANING

        def first_flip(obj, t):
            # The phase only moves forward, so bisect the first later minute.
            lo, hi = t + 1.0, horizon
            if phase(obj, hi) == phase(obj, t):
                return None
            while lo < hi:
                mid = float((lo + hi) // 2)
                if phase(obj, mid) == phase(obj, t):
                    lo = mid + 1.0
                else:
                    hi = mid
            return lo

        pops = []
        heappop = index_module.heapq.heappop
        monkeypatch.setattr(
            index_module.heapq, "heappop", lambda heap: pops.append(heappop(heap)) or pops[-1]
        )
        index = ImportanceIndex()
        objs = []
        for i, lifetime in enumerate(TestWaningPhase.ANNOTATIONS * 2):
            obj = StoredObject(
                size=10, t_arrival=float(3 * i), lifetime=lifetime, object_id=f"o{i}"
            )
            index.add(obj, obj.t_arrival)
            objs.append(obj)
        now = objs[-1].t_arrival
        breakpoints = sorted({
            b for obj in objs
            for b in (obj.t_arrival + obj.lifetime.stable_until + 1,
                      obj.t_arrival + obj.lifetime.t_expire)
            if b < horizon
        })
        for t in sorted({b + d for b in breakpoints for d in (-1.0, 0.0, 1.0)}):
            if t < now:
                continue
            now = t
            index.advance(t)
            assert index.check(t)
            live = {id(rec): at for at, _seq, rec in index._heap if rec.obj is not None}
            for rec in index.residents.values():
                assert rec.phase == phase(rec.obj, t)
                assert live.get(id(rec)) == first_flip(rec.obj, t), rec.obj.object_id
        assert sum(rec.obj is not None for _at, _seq, rec in pops) == index.transitions > 20
        kinds = (TwoStepImportance, FixedLifetimeImportance)
        for rec in index.residents.values():
            assert index.groups.in_family(rec) == (type(rec.obj.lifetime) in kinds)

    def test_time_regression_is_refused(self):
        index = ImportanceIndex()
        index.add(two_step_obj("a", 10, t_arrival=0.0), 0.0)
        index.advance(200.0)
        assert index.residents["a"].phase == PHASE_EXPIRED
        with pytest.raises(SimulationError):
            index.advance(50.0)  # time never goes back
        assert index.residents["a"].phase == PHASE_EXPIRED
        assert index.check(200.0)

    def test_discard_and_reuse_of_an_id(self):
        index = ImportanceIndex()
        index.add(two_step_obj("a", 10, t_arrival=0.0), 0.0)
        index.discard("a")
        assert "a" not in index.residents
        # Re-add the same id with a different lifetime: the stale heap entry
        # from the first incarnation must not corrupt the new one.
        index.add(make_obj(1.0, lifetime=ConstantImportance(p=0.5), object_id="a"), 0.0)
        index.advance(1e9)
        assert index.residents["a"].phase == PHASE_CONSTANT
        assert index.check(1e9)

    def test_duplicate_add_is_rejected(self):
        index = ImportanceIndex()
        index.add(two_step_obj("a", 10, t_arrival=0.0), 0.0)
        with pytest.raises(ReproError):
            index.add(two_step_obj("a", 10, t_arrival=0.0), 0.0)


class TestVictimCandidates:
    def test_candidates_reproduce_the_naive_greedy_prefix(self):
        index = ImportanceIndex()
        residents = []
        for i, p in enumerate((0.1, 0.3, 0.3, 0.5, 0.9, 1.0)):
            obj = StoredObject(
                size=100,
                t_arrival=float(i),
                lifetime=FixedLifetimeImportance(p=p, expire_after=1000.0),
                object_id=f"o{i}",
            )
            residents.append(obj)
            index.add(obj, float(i))
        needed = 250  # covered by the 0.1 + 0.3 + 0.3 buckets
        candidates = victim_candidates(index, 10.0, needed)
        ids = {o.object_id for o in candidates}
        assert {"o0", "o1", "o2"} <= ids
        assert "o5" not in ids  # the 1.0 bucket is never touched
        naive_prefix = []
        freed = 0
        for obj in importance_order(residents, 10.0):
            if freed >= needed:
                break
            naive_prefix.append(obj.object_id)
            freed += obj.size
        indexed_prefix = []
        freed = 0
        for obj in importance_order(candidates, 10.0):
            if freed >= needed:
                break
            indexed_prefix.append(obj.object_id)
            freed += obj.size
        assert indexed_prefix == naive_prefix

    def test_expired_bytes_short_circuit_the_bucket_walk(self):
        index = ImportanceIndex()
        index.add(make_obj(1.0, lifetime=DiracImportance(), object_id="dead"), 0.0)
        index.add(make_obj(1.0, lifetime=ConstantImportance(p=1.0), object_id="live"), 0.0)
        candidates = victim_candidates(index, 0.0, 10)
        assert [o.object_id for o in candidates] == ["dead"]

    def test_expired_objects_come_back_in_admission_order(self):
        index = ImportanceIndex()
        for oid, arrival in (("b", 5.0), ("a", 0.0), ("c", 10.0)):
            index.add(
                StoredObject(
                    size=10,
                    t_arrival=arrival,
                    lifetime=FixedLifetimeImportance(p=0.5, expire_after=20.0),
                    object_id=oid,
                ),
                10.0,
            )
        assert [o.object_id for o in index.expired_objects(100.0)] == ["b", "a", "c"]


class TestIndexMass:
    def test_exact_mass_is_bit_identical_to_the_naive_fsum(self):
        index = ImportanceIndex()
        objs = []
        for i in range(50):
            obj = two_step_obj(
                f"o{i}", 7 + 13 * i, t_arrival=float(17 * i // 10), p=0.1 + (i % 9) * 0.1,
                persist=40.0 + i, wane=25.0,
            )
            objs.append(obj)
            index.add(obj, obj.t_arrival)
        for now in (90.0, 111.0, 144.0, 200.0, 400.0):
            naive = math.fsum(
                imp * o.size for o in objs if (imp := o.importance_at(now)) > 0.0
            )
            assert index.exact_mass(now) == naive

    def test_closed_form_tracks_the_exact_mass(self):
        # The closed form is gone; the name stays (the benchmark's tracer
        # resolves it) and answers with the exact mass.
        index = ImportanceIndex()
        for i in range(50):
            index.add(two_step_obj(f"o{i}", 1000 + i, t_arrival=float(i)), float(i))
        for now in (50.0, 120.0, 140.0, 160.0):
            assert index.closed_form_mass(now) == index.exact_mass(now)

    def test_mass_shrinks_on_discard(self):
        index = ImportanceIndex()
        index.add(make_obj(1.0, lifetime=ConstantImportance(p=0.5), object_id="a"), 0.0)
        index.add(make_obj(1.0, lifetime=ConstantImportance(p=0.25), object_id="b"), 0.0)
        before = index.exact_mass(0.0)
        index.discard("a")
        assert index.exact_mass(0.0) < before
        index.discard("b")
        assert index.exact_mass(0.0) == 0.0


def _naive_mass(objs, now):
    return math.fsum(imp * o.size for o in objs if (imp := o.importance_at(now)) > 0.0)


class TestWaningPhase:
    """The waning residents under churn, probes and rebuilds: two-step and
    fixed-lifetime residents in their ``(p, t_wane)`` victim family, every
    other one in the index's waning dict."""

    #: Shared annotations (families and groups with many members) of every
    #: waning shape.
    ANNOTATIONS = (
        TwoStepImportance(p=0.8, t_persist=100.0, t_wane=60.0),
        TwoStepImportance(p=0.35, t_persist=41.0, t_wane=90.0),
        TwoStepImportance(p=0.0, t_persist=10.0, t_wane=50.0),
        Scaled(TwoStepImportance(p=0.9, t_persist=70.0, t_wane=80.0), 0.5),
        Scaled(Scaled(TwoStepImportance(0.7, 20.0, 120.0), 0.9), 0.3),
        ExponentialWaneImportance(p=0.6, t_persist=50.0, t_wane=100.0),
        StepWaneImportance(p=0.9, t_persist=30.0, t_wane=80.0, steps=5),
        PiecewiseLinearImportance([(20.0, 0.9), (90.0, 0.4), (160.0, 0.0)]),
        FixedLifetimeImportance(p=0.5, expire_after=120.0),
        ConstantImportance(p=0.25),
    )

    def _churn(self, seed):
        """Yield ``(index, residents, now)`` after each step of a seeded run."""
        rng = random.Random(seed)
        index = ImportanceIndex()
        residents = {}
        now = 0.0
        for step in range(400):
            now += rng.choice((0.0, 1.0, 3.0, 7.0))
            for _ in range(rng.randrange(0, 4)):
                obj = StoredObject(
                    size=rng.randrange(1, 2**30),
                    t_arrival=max(0.0, now - rng.choice((0.0, 0.0, 15.0, 61.0, 130.0))),
                    lifetime=rng.choice(self.ANNOTATIONS),
                    object_id=f"o{step}-{len(residents)}-{rng.randrange(10**6)}",
                )
                index.add(obj, now)
                residents[obj.object_id] = obj
            # Evict from anywhere: the head, middle and tail of a family.
            for oid in rng.sample(sorted(residents), min(len(residents), rng.randrange(0, 3))):
                index.discard(oid)
                del residents[oid]
            yield index, residents, now

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_churned_index_matches_the_naive_mass_at_every_step(self, seed):
        saw_waning = saw_expired = 0
        for index, residents, now in self._churn(seed):
            objs = list(residents.values())
            assert index.exact_mass(now) == _naive_mass(objs, now)
            assert index.check(now)
            saw_waning = max(saw_waning, index.waning_count)
            saw_expired = max(saw_expired, index.expired_count)
        # The run really walked residents through all three phases.
        assert saw_waning > 20 and saw_expired > 20 and index.transitions > 100

    def test_regressing_probes_are_refused(self):
        for index, residents, now in self._churn(7):
            pass
        objs = list(residents.values())
        # Forward probes answer; one into the past raises and changes nothing.
        for probe in (now, now + 40.0, now + 55.0, now + 300.0):
            assert index.exact_mass(probe) == _naive_mass(objs, probe)
            with pytest.raises(SimulationError):
                index.exact_mass(probe - 41.0)
            assert index.check(probe)
            waning = [
                o for o in objs
                if not o.is_expired_at(probe) and o.age_at(probe) > o.lifetime.stable_until
            ]
            assert index.waning_count == len(waning)
            assert {o.object_id for o in victim_candidates(index, probe, 0)} >= {
                o.object_id for o in waning
            }

    def test_discards_from_a_family_keep_it_current(self):
        index = ImportanceIndex()
        objs = [two_step_obj(f"o{i}", 10 + i, t_arrival=float(i)) for i in range(6)]
        for obj in objs:
            index.add(obj, obj.t_arrival)
        now = 110.0  # ages 105..110: all six waning, one shared family
        index.advance(now)
        assert index.waning_count == 6
        index.discard("o2")  # the middle of the family
        index.discard("o5")  # its tail
        index.discard("o4")  # the new tail
        assert index.check(now)
        left = [objs[0], objs[1], objs[3]]
        assert index.exact_mass(now) == _naive_mass(left, now)
        for obj in left:
            index.discard(obj.object_id)
        assert index.waning_count == 0 and not index.groups.family_count
        assert index.exact_mass(now) == 0.0

    def test_equal_annotations_share_one_family(self):
        index = ImportanceIndex()
        for i in range(5):  # distinct-but-equal annotation instances
            index.add(two_step_obj(f"o{i}", 10, t_arrival=0.0), 0.0)
        index.add(two_step_obj("other", 10, t_arrival=0.0, p=0.3), 0.0)
        index.advance(120.0)
        assert index.waning_count == 6
        families = index.groups._families.values()
        assert sorted(len(family.members) for family in families) == [1, 5]


class TestCheckCatchesStaleColumns:
    """A victim family is the waning column of its residents."""

    def _waning_index(self):
        index = ImportanceIndex()
        for i in range(4):
            index.add(two_step_obj(f"o{i}", 10 + i, t_arrival=float(i)), float(i))
        index.add(two_step_obj("late", 5, t_arrival=100.0), 100.0)  # stays constant
        assert index.check(110.0) and index.waning_count == 4
        (family,) = index.groups._families.values()
        return index, family

    def test_wrong_slot_map(self):
        index, _family = self._waning_index()
        a, b = index.residents["o0"], index.residents["o1"]
        a.key, b.key = b.key, a.key
        with pytest.raises(ReproError, match="stale"):
            index.check(110.0)

    def test_length_mismatch(self):
        index, family = self._waning_index()
        family.sizes.pop()
        with pytest.raises(ReproError, match="ragged"):
            index.check(110.0)

    def test_stale_column_value(self):
        index, family = self._waning_index()
        family.expiries[1] += 1.0
        with pytest.raises(ReproError, match="stale family values"):
            index.check(110.0)

    def test_member_not_in_the_waning_phase(self):
        index, _family = self._waning_index()
        index._waning["late"] = index.residents["late"]  # a constant-phase resident
        with pytest.raises(ReproError, match="is not waning"):
            index.check(110.0)

    def test_waning_count(self):
        index, _family = self._waning_index()
        index._family_waning += 1
        with pytest.raises(ReproError, match="family waning runs"):
            index.check(110.0)

    def test_stale_cached_heads(self):
        index, _family = self._waning_index()
        index.groups._live_heads(110.0)
        assert index.check(110.0)
        (head,) = index.groups._heads
        index.groups._heads = [head[:3] + (1,) + head[4:]]  # the second member's slot
        with pytest.raises(ReproError, match="cached family heads"):
            index.groups.check(110.0)

    def test_live_cursor_past_a_live_member(self):
        index, family = self._waning_index()
        assert family.live == 0  # every member is live at 110
        family.live = 1
        with pytest.raises(ReproError, match="live cursor"):
            index.check(110.0)


#: One step of the cursor property: move the clock by ``dt`` minutes, then
#: admit (arriving ``back`` minutes before the clock, so possibly expired
#: already) or discard the ``pick``-th resident, or only move the clock.
_cursor_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"), st.integers(0, 30), st.integers(0, 60),
            st.integers(0, 40), st.integers(1, 40), st.sampled_from((0.5, 1.0)),
        ),
        st.tuples(st.just("discard"), st.integers(0, 30), st.integers(0, 10**6)),
        st.tuples(st.just("advance"), st.integers(0, 30)),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(steps=_cursor_steps, read_every=st.integers(1, 4))
def test_family_live_cursor_is_the_expired_prefix(steps, read_every):
    # Each family's cursor, read, equals ``bisect_right(expiries, now)``
    # after every step: moved lazily by reads (some steps skip the read, so
    # an admission or discard can meet a lagging cursor), left short by
    # late admissions filed inside the expired prefix, pulled back by
    # discards.
    # ``check`` also holds the heads the reads cache to a fresh look.
    index = ImportanceIndex()
    now = 0.0
    for n, (kind, dt, *args) in enumerate(steps):
        now += dt
        index.advance(now)
        if kind == "add":
            back, persist, wane, p = args
            t_arrival = max(0.0, now - back)
            lifetime = (
                TwoStepImportance(p=p, t_persist=float(persist), t_wane=float(wane))
                if wane % 3 else FixedLifetimeImportance(p=p, expire_after=float(persist))
            )
            index.add(
                StoredObject(size=1, t_arrival=t_arrival, lifetime=lifetime, object_id=f"o{n}"),
                now,
            )
        elif kind == "discard" and index.residents:
            index.discard(sorted(index.residents)[args[0] % len(index.residents)])
        assert index.check(now)
        if n % read_every == 0:
            index.groups._live_heads(now)  # fills the cached heads
            for family in index.groups._families.values():
                assert family.first_live(now) == bisect_right(family.expiries, now)


class TestBreakpointHeap:
    """A discarded resident's breakpoint entry is stale; the heap sheds its
    stale entries once they pass ``_STALE_SHARE`` of the live ones."""

    def test_preempted_constant_residents_leave_the_heap_bounded(self):
        from repro.core.index import _STALE_SHARE

        n = 12_000
        unit = StorageUnit(100, TemporalImportancePolicy(), keep_history=False)
        for i in range(n):  # each arrival outranks, and preempts, the last
            obj = two_step_obj(f"o{i}", 100, float(i), p=(i + 1) / n, persist=1e7)
            assert unit.offer(obj, float(i)).admitted
        index = unit.importance_index
        assert unit.evicted_count == n - 1 and len(index.residents) == 1
        assert len(index._heap) <= len(index.residents) * (1 + 1 / _STALE_SHARE)
        assert index.check(float(n))

    def test_stale_entries_outlive_expiries_and_go_with_the_residents(self):
        index = ImportanceIndex()
        for i in range(10):  # five long-lived residents, then five short-lived
            persist = 1e7 if i < 5 else 10.0
            index.add(two_step_obj(f"o{i}", 1, float(i), persist=persist, wane=5.0), float(i))
        for i in range(5):
            index.discard(f"o{i}")
        assert index.check(10.0) and index._stale == 5 and len(index._heap) == 10
        assert index.check(100.0) and index.expired_count == 5  # expiries pop live entries
        assert index._stale == 5 and len(index._heap) == 5
        index.discard("o5")  # five stale entries, four residents: rebuilt
        assert index._heap == [] and index._stale == 0 and index.check(100.0)

    def test_check_counts_the_entries(self):
        index = ImportanceIndex()
        for i in range(4):
            index.add(two_step_obj(f"o{i}", 1, float(i)), float(i))
        index.discard("o0")
        assert index.check(5.0) and index._stale == 1
        index._stale = 0
        with pytest.raises(ReproError, match="stale heap entries"):
            index.check(5.0)
        index._stale = 1
        entry = next(e for e in index._heap if e[2].obj is not None)
        index._heap.remove(entry)
        with pytest.raises(ReproError, match="one entry per resident"):
            index.check(5.0)
        index._heap.append(entry)
        index._heap.append(entry)
        with pytest.raises(ReproError, match="one entry per resident"):
            index.check(5.0)

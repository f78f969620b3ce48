"""Unit tests for the incremental importance index (repro.core.index)."""

import math
import random

import pytest

from repro.core.admission import importance_order
from repro.core.importance import (
    ConstantImportance,
    DiracImportance,
    ExponentialWaneImportance,
    FixedLifetimeImportance,
    PiecewiseLinearImportance,
    ScaledImportance,
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
from repro.errors import ReproError
from tests.conftest import make_obj


class TestStableUntil:
    def test_constant_never_leaves_the_stable_prefix(self):
        assert ConstantImportance(p=0.7).stable_until == math.inf

    def test_dirac_is_trivially_stable(self):
        assert DiracImportance().stable_until == math.inf

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

    def test_scaled_inherits_the_inner_prefix(self):
        inner = TwoStepImportance(p=0.8, t_persist=50.0, t_wane=30.0)
        fn = ScaledImportance(inner, 0.5)
        assert fn.stable_until == 50.0
        assert fn.importance_at(25.0) == fn.initial_importance


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
        assert index.phase_of("a") == PHASE_CONSTANT

        index.advance(100.0)  # still inside the stable prefix (age <= 100)
        assert index.phase_of("a") == PHASE_CONSTANT

        index.advance(100.5)
        assert index.phase_of("a") == PHASE_WANING

        index.advance(151.0)
        assert index.phase_of("a") == PHASE_EXPIRED
        assert index.transitions == 2
        assert index.check(151.0)

    def test_admission_mid_life_classifies_directly(self):
        index = ImportanceIndex()
        index.add(two_step_obj("w", 10, t_arrival=0.0), 120.0)
        assert index.phase_of("w") == PHASE_WANING
        index.add(two_step_obj("e", 10, t_arrival=0.0), 200.0)
        assert index.phase_of("e") == PHASE_EXPIRED

    def test_dirac_objects_are_expired_on_arrival(self):
        index = ImportanceIndex()
        index.add(make_obj(1.0, lifetime=DiracImportance(), object_id="d"), 0.0)
        assert index.phase_of("d") == PHASE_EXPIRED

    def test_constants_never_transition(self):
        index = ImportanceIndex()
        index.add(make_obj(1.0, lifetime=ConstantImportance(p=0.3), object_id="c"), 0.0)
        index.advance(1e12)
        assert index.phase_of("c") == PHASE_CONSTANT
        assert index.transitions == 0

    def test_breakpoints_are_never_processed_late(self):
        # Probe densely around the breakpoints: after advance(now) the
        # bucket must always match the predicates at exactly that now.
        index = ImportanceIndex()
        obj = two_step_obj("a", 10, t_arrival=0.123456789, persist=7.77, wane=3.33)
        index.add(obj, 0.2)
        for base in (0.123456789 + 7.77, 0.123456789 + 7.77 + 3.33):
            t = base
            for _ in range(5):
                t = math.nextafter(t, -math.inf)
            for _ in range(10):
                index.advance(t)
                assert index.check(t)
                t = math.nextafter(t, math.inf)

    def test_time_regression_rebuilds(self):
        index = ImportanceIndex()
        index.add(two_step_obj("a", 10, t_arrival=0.0), 0.0)
        index.advance(200.0)
        assert index.phase_of("a") == PHASE_EXPIRED
        index.advance(50.0)  # probing the past is allowed on read paths
        assert index.phase_of("a") == PHASE_CONSTANT
        assert index.check(50.0)

    def test_discard_and_reuse_of_an_id(self):
        index = ImportanceIndex()
        index.add(two_step_obj("a", 10, t_arrival=0.0), 0.0)
        index.discard("a")
        assert "a" not in index.residents
        # Re-add the same id with a different lifetime: the stale heap entry
        # from the first incarnation must not corrupt the new one.
        index.add(make_obj(1.0, lifetime=ConstantImportance(p=0.5), object_id="a"), 0.0)
        index.advance(1e9)
        assert index.phase_of("a") == PHASE_CONSTANT
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
        candidates = index.victim_candidates(10.0, needed)
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
        candidates = index.victim_candidates(0.0, 10)
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
                arrival,
            )
        assert [o.object_id for o in index.expired_objects(100.0)] == ["b", "a", "c"]


class TestIndexMass:
    def test_exact_mass_is_bit_identical_to_the_naive_fsum(self):
        index = ImportanceIndex()
        objs = []
        for i in range(50):
            obj = two_step_obj(
                f"o{i}", 7 + 13 * i, t_arrival=1.7 * i, p=0.1 + (i % 9) * 0.1,
                persist=40.0 + i, wane=25.0,
            )
            objs.append(obj)
            index.add(obj, obj.t_arrival)
        for now in (90.0, 111.1, 143.7, 200.0, 400.0):
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
    """The waning residents under churn, probes and rebuilds: integer-grid
    two-step residents in their ``(p, t_wane)`` victim family, every other
    one in the index's waning dict."""

    #: Shared annotations (families and groups with many members) of every
    #: waning shape.
    ANNOTATIONS = (
        TwoStepImportance(p=0.8, t_persist=100.0, t_wane=60.0),
        TwoStepImportance(p=0.35, t_persist=40.5, t_wane=90.25),
        TwoStepImportance(p=0.0, t_persist=10.0, t_wane=50.0),
        ScaledImportance(TwoStepImportance(p=0.9, t_persist=70.0, t_wane=80.0), 0.5),
        ScaledImportance(ScaledImportance(TwoStepImportance(0.7, 20.0, 120.0), 0.9), 0.3),
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
            now += rng.choice((0.0, 0.5, 1.0, 3.0, 7.25))
            for _ in range(rng.randrange(0, 4)):
                obj = StoredObject(
                    size=rng.randrange(1, 2**30),
                    t_arrival=max(0.0, now - rng.choice((0.0, 0.0, 15.0, 60.5, 130.0))),
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

    def test_regressing_probes_rebuild_the_index(self):
        for index, residents, now in self._churn(7):
            pass
        objs = list(residents.values())
        # Forward, then back into the past (rebuild), then forward again.
        for probe in (now, now + 40.0, now - 55.5, now - 200.0, now - 90.0, now + 300.0, 0.0):
            assert index.exact_mass(probe) == _naive_mass(objs, probe)
            assert index.check(probe)
            waning = [
                o for o in objs
                if not o.is_expired_at(probe) and o.age_at(probe) > o.lifetime.stable_until
            ]
            assert index.waning_count == len(waning)
            assert {o.object_id for o in index.victim_candidates(probe, 0)} >= {
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
    """A victim family is the waning column of its integer-grid residents."""

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

"""Unit tests for the importance-function family (paper Section 3)."""

import math

import pytest

from repro.core.density import importance_density
from repro.core.importance import (
    ConstantImportance,
    DiracImportance,
    ExponentialWaneImportance,
    FixedLifetimeImportance,
    ImportanceFunction,
    PiecewiseLinearImportance,
    StepWaneImportance,
    TwoStepImportance,
)
from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.errors import AnnotationError
from repro.units import days, gib


class TestConstantImportance:
    def test_never_expires(self):
        func = ConstantImportance(p=1.0)
        assert math.isinf(func.t_expire)
        assert not func.is_expired(days(10_000))

    def test_importance_is_constant(self):
        func = ConstantImportance(p=0.6)
        assert func.importance_at(0.0) == 0.6
        assert func.importance_at(days(365 * 50)) == 0.6

    def test_default_p_is_one(self):
        assert ConstantImportance().importance_at(days(1)) == 1.0

    def test_remaining_lifetime_is_infinite(self):
        assert math.isinf(ConstantImportance().remaining_lifetime(days(5)))

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_rejects_out_of_range_p(self, bad):
        with pytest.raises(AnnotationError):
            ConstantImportance(p=bad)


class TestDiracImportance:
    def test_expires_immediately(self):
        func = DiracImportance()
        assert func.t_expire == 0.0
        assert func.is_expired(0.0)

    def test_importance_is_zero_everywhere(self):
        func = DiracImportance()
        assert func.importance_at(0.0) == 0.0
        assert func.importance_at(days(1)) == 0.0

    def test_remaining_lifetime_is_zero(self):
        assert DiracImportance().remaining_lifetime(0.0) == 0.0


class TestFixedLifetimeImportance:
    def test_constant_until_expiry(self):
        func = FixedLifetimeImportance(p=1.0, expire_after=days(30))
        assert func.importance_at(0.0) == 1.0
        assert func.importance_at(days(29.99)) == 1.0

    def test_zero_at_and_after_expiry(self):
        func = FixedLifetimeImportance(p=1.0, expire_after=days(30))
        assert func.importance_at(days(30)) == 0.0
        assert func.importance_at(days(31)) == 0.0

    def test_t_expire(self):
        func = FixedLifetimeImportance(p=0.5, expire_after=days(7))
        assert func.t_expire == days(7)

    def test_rejects_negative_expiry(self):
        with pytest.raises(AnnotationError):
            FixedLifetimeImportance(p=1.0, expire_after=-1.0)

    def test_zero_expiry_behaves_like_dirac(self):
        func = FixedLifetimeImportance(p=1.0, expire_after=0.0)
        assert func.importance_at(0.0) == 0.0


class TestTwoStepImportance:
    def test_persistence_window_is_flat(self, two_step):
        assert two_step.importance_at(0.0) == 1.0
        assert two_step.importance_at(days(15)) == 1.0

    def test_wane_is_linear(self, two_step):
        # Midway through the wane the importance is half of p.
        assert two_step.importance_at(days(22.5)) == pytest.approx(0.5)
        assert two_step.importance_at(days(18.75)) == pytest.approx(0.75)

    def test_expiry(self, two_step):
        assert two_step.t_expire == days(30)
        assert two_step.importance_at(days(30)) == 0.0
        assert two_step.importance_at(days(100)) == 0.0

    def test_negative_age_clamps_to_initial(self, two_step):
        assert two_step.importance_at(-5.0) == 1.0

    def test_scaled_initial_importance(self):
        func = TwoStepImportance(p=0.5, t_persist=days(10), t_wane=days(10))
        assert func.initial_importance == 0.5
        assert func.importance_at(days(15)) == pytest.approx(0.25)

    def test_zero_wane_reduces_to_fixed_priority(self):
        func = TwoStepImportance(p=1.0, t_persist=days(30), t_wane=0.0)
        assert func.importance_at(days(29.99)) == 1.0
        assert func.importance_at(days(30)) == 0.0

    def test_zero_persist_and_wane_reduces_to_cache(self):
        func = TwoStepImportance(p=1.0, t_persist=0.0, t_wane=0.0)
        assert func.t_expire == 0.0
        # Only the Dirac spike at age exactly 0 remains, matching Fig. 1's
        # taxonomy; the first instant is the persistence "window".
        assert func.importance_at(1e-9) == 0.0

    def test_remaining_lifetime_decreases(self, two_step):
        assert two_step.remaining_lifetime(0.0) == days(30)
        assert two_step.remaining_lifetime(days(10)) == days(20)
        assert two_step.remaining_lifetime(days(31)) == 0.0

    @pytest.mark.parametrize("bad_kwargs", [
        {"p": 1.5, "t_persist": 0.0, "t_wane": 0.0},
        {"p": -0.5, "t_persist": 0.0, "t_wane": 0.0},
        {"p": 1.0, "t_persist": -1.0, "t_wane": 0.0},
        {"p": 1.0, "t_persist": 0.0, "t_wane": -1.0},
        {"p": 1.0, "t_persist": 0.0, "t_wane": float("inf")},
    ])
    def test_rejects_invalid_parameters(self, bad_kwargs):
        with pytest.raises(AnnotationError):
            TwoStepImportance(**bad_kwargs)


class TestExponentialWaneImportance:
    def test_matches_two_step_at_boundaries(self):
        func = ExponentialWaneImportance(p=0.8, t_persist=days(5), t_wane=days(10))
        assert func.importance_at(days(5)) == pytest.approx(0.8)
        assert func.importance_at(days(15)) == 0.0

    def test_front_loads_the_drop(self):
        linear = TwoStepImportance(p=1.0, t_persist=days(5), t_wane=days(10))
        exp = ExponentialWaneImportance(
            p=1.0, t_persist=days(5), t_wane=days(10), sharpness=4.0
        )
        mid = days(10)
        assert exp.importance_at(mid) < linear.importance_at(mid)

    def test_monotone_through_wane(self):
        func = ExponentialWaneImportance(p=1.0, t_persist=days(1), t_wane=days(9))
        samples = [func.importance_at(days(1) + days(9) * i / 50) for i in range(51)]
        assert all(a >= b for a, b in zip(samples, samples[1:]))

    def test_rejects_nonpositive_sharpness(self):
        with pytest.raises(AnnotationError):
            ExponentialWaneImportance(p=1.0, t_persist=0.0, t_wane=days(1), sharpness=0.0)


class TestStepWaneImportance:
    def test_descends_in_stairs(self):
        func = StepWaneImportance(p=1.0, t_persist=days(4), t_wane=days(4), steps=4)
        wane_values = {
            func.importance_at(days(4) + days(4) * frac) for frac in (0.1, 0.4, 0.6, 0.9)
        }
        assert wane_values == {0.75, 0.5, 0.25, 0.0}

    def test_single_step_is_fixed_priority(self):
        func = StepWaneImportance(p=1.0, t_persist=days(2), t_wane=days(2), steps=1)
        assert func.importance_at(days(3)) == 1.0
        assert func.importance_at(days(4)) == 0.0

    def test_rejects_zero_steps(self):
        with pytest.raises(AnnotationError):
            StepWaneImportance(p=1.0, t_persist=0.0, t_wane=days(1), steps=0)


class TestPiecewiseLinearImportance:
    def test_interpolates_between_knots(self):
        func = PiecewiseLinearImportance([(0.0, 1.0), (days(10), 0.0)])
        assert func.importance_at(days(5)) == pytest.approx(0.5)

    def test_constant_before_first_and_after_last_knot(self):
        func = PiecewiseLinearImportance([(days(2), 0.8), (days(4), 0.2)])
        assert func.importance_at(0.0) == 0.8
        assert func.importance_at(days(10)) == 0.2

    def test_t_expire_infinite_when_tail_positive(self):
        func = PiecewiseLinearImportance([(0.0, 1.0), (days(5), 0.3)])
        assert math.isinf(func.t_expire)

    def test_t_expire_finds_first_zero(self):
        func = PiecewiseLinearImportance(
            [(0.0, 1.0), (days(5), 0.0), (days(9), 0.0)]
        )
        assert func.t_expire == days(5)

    def test_many_knots_binary_search(self):
        knots = [(days(i), 1.0 - i / 100) for i in range(101)]
        func = PiecewiseLinearImportance(knots)
        assert func.importance_at(days(50.5)) == pytest.approx(0.495)

    def test_rejects_increasing_importance(self):
        with pytest.raises(AnnotationError):
            PiecewiseLinearImportance([(0.0, 0.5), (days(1), 0.9)])

    def test_rejects_unsorted_ages(self):
        with pytest.raises(AnnotationError):
            PiecewiseLinearImportance([(days(2), 1.0), (days(1), 0.5)])

    def test_rejects_empty(self):
        with pytest.raises(AnnotationError):
            PiecewiseLinearImportance([])


class TestCommonBehaviour:
    @pytest.mark.parametrize("func", [
        ConstantImportance(),
        DiracImportance(),
        FixedLifetimeImportance(p=1.0, expire_after=days(30)),
        TwoStepImportance(p=1.0, t_persist=days(15), t_wane=days(15)),
        ExponentialWaneImportance(p=1.0, t_persist=days(5), t_wane=days(5)),
        StepWaneImportance(p=1.0, t_persist=days(5), t_wane=days(5)),
        PiecewiseLinearImportance([(0.0, 1.0), (days(5), 0.0)]),
    ])
    def test_callable_matches_importance_at(self, func):
        for age in (0.0, days(1), days(20), days(40)):
            assert func(age) == func.importance_at(age)

    def test_functions_are_hashable_values(self, two_step):
        same = TwoStepImportance(p=1.0, t_persist=days(15), t_wane=days(15))
        assert two_step == same
        assert hash(two_step) == hash(same)
        assert len({two_step, same}) == 1

    def test_nan_age_raises(self, two_step):
        with pytest.raises(AnnotationError):
            two_step.importance_at(float("nan"))


class TestUserSubclass:
    def test_default_stable_until_treats_it_as_waning_from_arrival(self):
        # A library user's function that does not widen ``stable_until``
        # keeps the safe default, and a store re-evaluates it on every read.
        class Linear(ImportanceFunction):
            t_expire = days(10)

            def importance_at(self, age_minutes):
                return max(0.0, 1.0 - age_minutes / days(10))

        linear = Linear()
        assert linear.stable_until == 0.0
        store = StorageUnit(gib(1), TemporalImportancePolicy())
        store.offer(StoredObject(size=gib(1) // 2, t_arrival=0.0, lifetime=linear), 0.0)
        assert importance_density(store, days(5)) == pytest.approx(0.25)

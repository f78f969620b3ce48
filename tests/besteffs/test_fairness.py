"""Tests for importance-budget fairness."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.besteffs.fairness import (
    FairnessError,
    FairShareLedger,
    annotation_cost,
    importance_integral,
)
from repro.core.importance import (
    ConstantImportance,
    DiracImportance,
    ExponentialWaneImportance,
    FixedLifetimeImportance,
    PiecewiseLinearImportance,
    StepWaneImportance,
    TwoStepImportance,
)
from repro.units import days
from tests.conftest import make_obj


class TestImportanceIntegral:
    def test_dirac_costs_nothing(self):
        assert importance_integral(DiracImportance()) == 0.0

    def test_persistent_costs_infinity(self):
        assert math.isinf(importance_integral(ConstantImportance(p=1.0)))
        assert importance_integral(ConstantImportance(p=0.0)) == 0.0

    def test_fixed_lifetime_is_rectangle(self):
        func = FixedLifetimeImportance(p=0.5, expire_after=days(10))
        assert importance_integral(func) == pytest.approx(0.5 * days(10))

    def test_two_step_is_rectangle_plus_triangle(self):
        func = TwoStepImportance(p=1.0, t_persist=days(15), t_wane=days(15))
        expected = days(15) + 0.5 * days(15)
        assert importance_integral(func) == pytest.approx(expected)

    def test_piecewise_trapezoid(self):
        func = PiecewiseLinearImportance([(0.0, 1.0), (days(10), 0.0)])
        assert importance_integral(func) == pytest.approx(0.5 * days(10))

    def test_piecewise_with_positive_tail_is_infinite(self):
        func = PiecewiseLinearImportance([(0.0, 1.0), (days(1), 0.5)])
        assert math.isinf(importance_integral(func))

    @given(
        p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        persist=st.integers(min_value=0, max_value=10**5).map(float),
        wane=st.integers(min_value=0, max_value=10**5).map(float),
        sharp=st.floats(min_value=0.2, max_value=10.0, allow_nan=False),
        steps=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=80)
    def test_closed_forms_match_numeric_integration(self, p, persist, wane, sharp, steps):
        """Closed-form integrals agree with dense trapezoid integration."""
        from repro.besteffs.fairness import _numeric

        for func in (
            TwoStepImportance(p=p, t_persist=persist, t_wane=wane),
            ExponentialWaneImportance(p=p, t_persist=persist, t_wane=wane, sharpness=sharp),
            StepWaneImportance(p=p, t_persist=persist, t_wane=wane, steps=steps),
        ):
            closed = importance_integral(func)
            numeric = _numeric(func, samples=8193)
            scale = max(1.0, closed)
            assert abs(closed - numeric) / scale < 0.01


class TestAnnotationCost:
    def test_scales_with_size(self, two_step):
        small = make_obj(1.0, lifetime=two_step)
        large = make_obj(2.0, lifetime=two_step)
        assert annotation_cost(large) == pytest.approx(2 * annotation_cost(small))


class TestFairShareLedger:
    def budget_for(self, n_objects: int) -> float:
        cost = annotation_cost(make_obj(1.0))
        return cost * n_objects

    def test_charges_until_budget_exhausted(self):
        ledger = FairShareLedger(
            budget_per_period=self.budget_for(2) * 1.01, period_minutes=days(30)
        )
        ledger.charge("alice", make_obj(1.0), 0.0)
        ledger.charge("alice", make_obj(1.0), 0.0)
        with pytest.raises(FairnessError, match="remain this period"):
            ledger.charge("alice", make_obj(1.0), 0.0)

    def test_budgets_are_per_principal(self):
        ledger = FairShareLedger(
            budget_per_period=self.budget_for(1) * 1.01, period_minutes=days(30)
        )
        ledger.charge("alice", make_obj(1.0), 0.0)
        ledger.charge("bob", make_obj(1.0), 0.0)  # bob has his own budget

    def test_budget_refreshes_each_period(self):
        ledger = FairShareLedger(
            budget_per_period=self.budget_for(1) * 1.01, period_minutes=days(30)
        )
        ledger.charge("alice", make_obj(1.0), 0.0)
        with pytest.raises(FairnessError):
            ledger.charge("alice", make_obj(1.0), days(29))
        ledger.charge("alice", make_obj(1.0), days(31))  # new period

    def test_infinite_annotations_always_refused(self):
        ledger = FairShareLedger(budget_per_period=1e30, period_minutes=days(30))
        persistent = make_obj(1.0, lifetime=ConstantImportance())
        with pytest.raises(FairnessError, match="non-expiring"):
            ledger.charge("greedy", persistent, 0.0)

    def test_dirac_objects_are_free(self):
        ledger = FairShareLedger(budget_per_period=1.0, period_minutes=days(30))
        for _ in range(100):
            ledger.charge("cachey", make_obj(1.0, lifetime=DiracImportance()), 0.0)

    def test_refund_restores_budget(self):
        cost = annotation_cost(make_obj(1.0))
        ledger = FairShareLedger(budget_per_period=cost * 1.01, period_minutes=days(30))
        charged = ledger.charge("alice", make_obj(1.0), 0.0)
        ledger.refund("alice", charged, 0.0)
        ledger.charge("alice", make_obj(1.0), 0.0)  # works again

    def test_remaining_and_spent_track(self):
        cost = annotation_cost(make_obj(1.0))
        ledger = FairShareLedger(budget_per_period=cost * 3, period_minutes=days(30))
        assert ledger.remaining("alice", 0.0) == pytest.approx(cost * 3)
        ledger.charge("alice", make_obj(1.0), 0.0)
        assert ledger.spent("alice", 0.0) == pytest.approx(cost)
        assert ledger.remaining("alice", 0.0) == pytest.approx(cost * 2)

    def test_rejects_invalid_configuration(self):
        with pytest.raises(FairnessError):
            FairShareLedger(budget_per_period=0.0, period_minutes=days(1))
        with pytest.raises(FairnessError):
            FairShareLedger(budget_per_period=1.0, period_minutes=0.0)

"""Tests for annotation validation."""

import pytest

from repro.core.annotations import Annotation, validate_importance_function
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
from repro.errors import AnnotationError
from repro.units import days

ALL_EXAMPLES = [
    ConstantImportance(p=0.7),
    DiracImportance(),
    FixedLifetimeImportance(p=1.0, expire_after=days(30)),
    TwoStepImportance(p=1.0, t_persist=days(15), t_wane=days(15)),
    ExponentialWaneImportance(p=0.9, t_persist=days(2), t_wane=days(8), sharpness=2.5),
    StepWaneImportance(p=0.8, t_persist=days(1), t_wane=days(4), steps=5),
    PiecewiseLinearImportance([(0.0, 1.0), (days(2), 0.4), (days(6), 0.0)]),
]


class TestValidator:
    @pytest.mark.parametrize("func", ALL_EXAMPLES, ids=lambda f: type(f).__name__)
    def test_accepts_all_builtins(self, func):
        validate_importance_function(func)

    def test_rejects_non_function(self):
        with pytest.raises(AnnotationError):
            validate_importance_function("not a function")

    def test_rejects_increasing_custom_function(self):
        class Rejuvenating(ImportanceFunction):
            @property
            def t_expire(self):
                return days(10)

            def importance_at(self, age_minutes):
                # Forbidden: importance rises back at day 5.
                return 0.2 if age_minutes < days(5) else (
                    0.9 if age_minutes < days(10) else 0.0
                )

        with pytest.raises(AnnotationError, match="increases"):
            validate_importance_function(Rejuvenating())

    def test_rejects_out_of_range_custom_function(self):
        class TooBig(ImportanceFunction):
            @property
            def t_expire(self):
                return float("inf")

            def importance_at(self, age_minutes):
                return 1.5

        with pytest.raises(AnnotationError, match=r"outside \[0, 1\]"):
            validate_importance_function(TooBig())

    def test_rejects_nonzero_after_expiry(self):
        class Zombie(ImportanceFunction):
            @property
            def t_expire(self):
                return days(1)

            def importance_at(self, age_minutes):
                return 0.5  # never actually reaches zero

        with pytest.raises(AnnotationError):
            validate_importance_function(Zombie())

    def test_rejects_too_few_samples(self, two_step):
        with pytest.raises(AnnotationError):
            validate_importance_function(two_step, samples=1)


class TestAnnotationWrapper:
    def test_validates_on_construction(self, two_step):
        Annotation("lecture", two_step)  # should not raise

    def test_rejects_empty_name(self, two_step):
        with pytest.raises(AnnotationError):
            Annotation("", two_step)

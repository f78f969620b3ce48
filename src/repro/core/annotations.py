"""Annotation validation.

Importance annotations are the contract between content creators and the
storage system, so they are validated once, up front, against the paper's
monotonicity requirement: :func:`validate_importance_function` is a
sampling-based monotonicity and range check usable against *any*
:class:`ImportanceFunction`, including user-defined subclasses the library
has never seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.importance import ImportanceFunction
from repro.errors import AnnotationError

__all__ = ["Annotation", "validate_importance_function"]

#: Tolerance for monotonicity violations attributable to float rounding.
_MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class Annotation:
    """A named, validated importance annotation.

    Thin wrapper pairing an :class:`ImportanceFunction` with the creator
    label it applies to; scenario code registers one annotation per content
    class (e.g. ``Annotation("university-lecture", two_step)``).
    """

    name: str
    function: ImportanceFunction

    def __post_init__(self) -> None:
        if not self.name:
            raise AnnotationError("annotation name must be non-empty")
        validate_importance_function(self.function)


def validate_importance_function(
    func: ImportanceFunction,
    *,
    samples: int = 257,
    horizon_minutes: float | None = None,
) -> None:
    """Check range and monotonicity of an importance function by sampling.

    The check samples ``samples`` ages from 0 to ``horizon_minutes``
    (default: ``t_expire`` when finite, else ten years) plus the exact
    expiry age, and raises :class:`AnnotationError` if any sampled value
    falls outside ``[0, 1]``, increases with age beyond float tolerance, or
    is non-zero at/after ``t_expire``.

    Sampling cannot *prove* monotonicity for adversarial functions, but it
    is exact for the built-in family (whose segments are sampled densely)
    and catches the realistic bugs in user-defined subclasses.
    """
    if not isinstance(func, ImportanceFunction):
        raise AnnotationError(f"not an ImportanceFunction: {func!r}")
    expire = func.t_expire
    if math.isnan(expire) or expire < 0.0:
        raise AnnotationError(f"t_expire must be >= 0 or inf, got {expire!r}")
    if horizon_minutes is None:
        horizon_minutes = expire if math.isfinite(expire) else 10 * 365 * 24 * 60.0
    horizon_minutes = max(horizon_minutes, 1.0)
    if samples < 2:
        raise AnnotationError("samples must be >= 2")

    ages = [horizon_minutes * i / (samples - 1) for i in range(samples)]
    if math.isfinite(expire):
        ages.extend([expire, expire * 1.000001 + 1.0])
    ages.sort()

    prev = math.inf
    for age in ages:
        value = func.importance_at(age)
        if math.isnan(value) or not 0.0 <= value <= 1.0:
            raise AnnotationError(f"L({age}) = {value!r} outside [0, 1] for {func!r}")
        if value > prev + _MONOTONE_TOL:
            raise AnnotationError(
                f"importance increases with age for {func!r}: L({age}) = {value} > {prev}"
            )
        if math.isfinite(expire) and age >= expire and value > _MONOTONE_TOL:
            raise AnnotationError(
                f"L must be 0 at/after t_expire={expire}; got L({age}) = {value} for {func!r}"
            )
        prev = value


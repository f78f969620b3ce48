"""Temporal importance functions (paper Section 3).

A *temporal importance function* ``L(t)`` maps an object's **age** (minutes
since its arrival) to a scalar importance in ``[0, 1]``.  The paper requires
``L`` to be monotonically non-increasing: rejuvenation in the future would
make an object's fate depend on the conditional probability that it escaped
eviction so far, which the authors explicitly disallow (Section 3).  The
overall longevity is ``t_expire``, the earliest age at which ``L`` reaches
zero; the system makes no availability guarantee beyond it, but also does
not proactively delete — an expired object squats until pressure arrives.

Concrete functions implemented here, mapping to the taxonomy of
Section 3.1:

=========================== ====================================================
:class:`ConstantImportance`  "no object expiration" — traditional persistence,
                             ``L(t) = p``, ``t_expire = ∞``.
:class:`DiracImportance`     "Palimpsest / cache degradation" — everything is
                             ephemeral and freely replaceable, ``t_expire = 0``.
:class:`FixedLifetimeImportance`
                             "no temporal degradation" — fixed-priority
                             expiration: ``L(t) = p`` until ``t_expire``.
:class:`TwoStepImportance`   the paper's contribution (Fig. 1): importance ``p``
                             for ``t_persist`` then a linear wane to zero over
                             ``t_wane``.
:class:`ExponentialWaneImportance` / :class:`StepWaneImportance`
                             wane-shape ablations the paper mentions as
                             possible alternatives to the linear wane.
:class:`PiecewiseLinearImportance`
                             "general function" — arbitrary monotone
                             non-increasing piecewise-linear importance.
=========================== ====================================================

All functions are immutable value objects: they can be shared between
objects, hashed and compared for equality.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.errors import AnnotationError
from repro.units import on_exact_grid

__all__ = [
    "ImportanceFunction",
    "ConstantImportance",
    "DiracImportance",
    "FixedLifetimeImportance",
    "TwoStepImportance",
    "ExponentialWaneImportance",
    "StepWaneImportance",
    "PiecewiseLinearImportance",
    "linear_wane",
]

_EPS = 1e-12


def linear_wane(p: float, remaining: float, t_wane: float) -> float:
    """The two-step wane (Fig. 1): importance ``remaining`` minutes before expiry.

    ``p * remaining / t_wane`` for ``0 < remaining < t_wane``.  This is the
    one spelling of the wane arithmetic: :meth:`TwoStepImportance.importance_at`
    calls it with ``remaining = t_expire - age``, and the victim families of
    :mod:`repro.core.victims` compute it with ``remaining = E - now`` (``E``
    the absolute expiry), which on the exact integer grid is the same float.
    So every caller gets the bits the per-object chain gets.  The family sum
    of the density probe (:meth:`~repro.core.victims.GroupedResidents.wane_terms`)
    writes these operations inline, in this order, to save a call per
    waning resident; ``tests/core/test_importance_properties.py`` pins its
    bits to this function's.
    """
    return p * remaining / t_wane


def _check_unit_interval(value: float, what: str) -> float:
    value = float(value)
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise AnnotationError(f"{what} must lie in [0, 1], got {value!r}")
    return value


def _check_minutes(value: float, what: str) -> None:
    """Refuse a duration that is not a whole minute (``inf``, never, passes)."""
    if value != math.inf and not on_exact_grid(value):
        raise AnnotationError(f"{what} must be a whole number of minutes >= 0, got {value!r}")


def check_filed(lifetime: ImportanceFunction) -> None:
    """Refuse an annotation defined outside this module (a user-defined
    one) whose ``stable_until`` or ``t_expire`` is not a whole minute (or
    ``inf``).  The built-ins check their durations when built; a storage
    unit calls this once per admission, before it changes anything."""
    kind = type(lifetime)
    if kind.__module__ != __name__:
        _check_minutes(lifetime.stable_until, f"{kind.__name__}.stable_until")
        _check_minutes(lifetime.t_expire, f"{kind.__name__}.t_expire")


class ImportanceFunction(ABC):
    """Abstract monotone non-increasing importance function of object age.

    Subclasses must be immutable and implement :meth:`importance_at` and
    :attr:`t_expire`.  Ages are durations in minutes (see
    :mod:`repro.units`); negative ages are clamped to zero so that callers
    probing "importance right now" at the arrival instant never see an
    artifact of floating-point clock arithmetic.
    """

    __slots__ = ()

    @property
    @abstractmethod
    def t_expire(self) -> float:
        """Earliest age (minutes) at which importance reaches zero.

        ``math.inf`` denotes an object that never expires.
        """

    @property
    def initial_importance(self) -> float:
        """Importance at age zero (the object's arrival)."""
        return self.importance_at(0.0)

    @property
    def stable_until(self) -> float:
        """Largest age (minutes) through which ``L`` is provably constant.

        For every age ``a`` with ``0 <= a <= stable_until`` (and the object
        not yet expired), ``importance_at(a)`` returns *exactly*
        :attr:`initial_importance` — the invariant
        :class:`repro.core.index.ImportanceIndex` relies on to keep an
        object in a constant-importance bucket without re-evaluating ``L``.
        The default of ``0.0`` is always safe (the index then treats the
        object as waning from the start, recomputing importance on demand);
        subclasses widen it where their shape guarantees it.
        """
        return 0.0

    @abstractmethod
    def importance_at(self, age_minutes: float) -> float:
        """Return ``L(age)`` for an age in minutes, clamped to ``[0, 1]``."""

    def __call__(self, age_minutes: float) -> float:
        return self.importance_at(age_minutes)

    def is_expired(self, age_minutes: float) -> bool:
        """True once the object has outlived its entire annotated lifetime."""
        return age_minutes >= self.t_expire

    def remaining_lifetime(self, age_minutes: float) -> float:
        """Minutes of annotated lifetime left; zero once expired.

        The paper's per-unit victim ordering sorts by current importance and
        then by remaining lifetime (Section 5.3), which is why this helper
        lives on the function rather than in the policies.
        """
        if math.isinf(self.t_expire):
            return math.inf
        return max(0.0, self.t_expire - max(0.0, age_minutes))

    # -- default implementations shared by the concrete subclasses --------

    def _clamp_age(self, age_minutes: float) -> float:
        if math.isnan(age_minutes):
            raise AnnotationError("object age must be a number, got NaN")
        return max(0.0, float(age_minutes))


@dataclass(frozen=True, slots=True)
class ConstantImportance(ImportanceFunction):
    """"No object expiration": traditional persistent storage.

    ``L(t) = p`` forever (``t_expire = ∞``).  With ``p = 1`` the object is
    never preemptible; the paper notes a majority of applications will keep
    requiring this level of management.
    """

    p: float = 1.0

    def __post_init__(self) -> None:
        _check_unit_interval(self.p, "constant importance p")

    @property
    def t_expire(self) -> float:
        return math.inf

    @property
    def stable_until(self) -> float:
        return math.inf

    def importance_at(self, age_minutes: float) -> float:
        self._clamp_age(age_minutes)
        return self.p


@dataclass(frozen=True, slots=True)
class DiracImportance(ImportanceFunction):
    """"Palimpsest / cache degradation": ephemeral data.

    The paper models FIFO caches as ``(L(t) = δ, t_expire = 0)``: the object
    matters only at the instant of creation and is freely replaceable
    afterwards.  Operationally every stored byte has importance zero, which
    is what :meth:`importance_at` returns for every age — the Dirac spike
    has zero measure and never survives a comparison.
    """

    @property
    def t_expire(self) -> float:
        return 0.0

    def importance_at(self, age_minutes: float) -> float:
        self._clamp_age(age_minutes)
        return 0.0


@dataclass(frozen=True, slots=True)
class FixedLifetimeImportance(ImportanceFunction):
    """"No temporal degradation": fixed-priority expiration.

    ``L(t) = p`` for ``t < t_expire`` and zero afterwards — the policy the
    paper attributes to Douglis et al. and uses as the *lifetime without
    temporal importance* baseline in Section 5.1
    (``L(t) = 1, t_expire = 30 days``).
    """

    p: float
    expire_after: float

    def __post_init__(self) -> None:
        _check_unit_interval(self.p, "fixed importance p")
        _check_minutes(self.expire_after, "expire_after")

    @property
    def t_expire(self) -> float:
        return self.expire_after

    @property
    def stable_until(self) -> float:
        return self.expire_after  # constant right up to the expiry cliff

    def importance_at(self, age_minutes: float) -> float:
        age = self._clamp_age(age_minutes)
        if age >= self.expire_after:
            return 0.0
        return self.p


@dataclass(frozen=True, slots=True)
class TwoStepImportance(ImportanceFunction):
    """The paper's two-piece temporal importance function (Fig. 1).

    Importance is a constant ``p`` for ``t_persist`` minutes, then wanes
    *linearly* to zero over a further ``t_wane`` minutes::

        L(t) = p                                      , t <= t_persist
        L(t) = p * (t_expire - t) / t_wane            , t_persist < t < t_expire
        L(t) = 0                                      , t >= t_expire

    Degenerate parameterisations intentionally reduce to the other policies
    in the taxonomy: ``t_wane = 0`` is fixed-priority expiration and
    ``t_persist = t_wane = 0`` is cache-like degradation.
    """

    p: float
    t_persist: float
    t_wane: float

    def __post_init__(self) -> None:
        _check_unit_interval(self.p, "two-step importance p")
        _check_minutes(self.t_persist, "t_persist")
        _check_minutes(self.t_wane, "t_wane")
        if math.isinf(self.t_wane):
            raise AnnotationError("t_wane must be finite (use ConstantImportance for no expiry)")

    @property
    def t_expire(self) -> float:
        return self.t_persist + self.t_wane

    @property
    def stable_until(self) -> float:
        return self.t_persist

    def importance_at(self, age_minutes: float) -> float:
        age = self._clamp_age(age_minutes)
        expire = self.t_expire
        # Expiry wins at the boundary: with t_wane == 0 the age t_persist is
        # simultaneously the end of persistence and the expiry instant, and
        # the Section 3 contract (L(t_expire) = 0) takes precedence.
        if age >= expire:
            return 0.0
        if age <= self.t_persist:
            return self.p
        # Strictly inside the wane window, so t_wane > 0 here.
        return linear_wane(self.p, expire - age, self.t_wane)


@dataclass(frozen=True, slots=True)
class ExponentialWaneImportance(ImportanceFunction):
    """Two-step function with an exponential wane (ablation, Section 3.1).

    The paper picks a linear wane "for simplicity" but notes the diminishing
    component could be exponential.  During the wane window the importance
    follows a truncated exponential that is continuous at both ends::

        L(t_persist) = p,   L(t_expire) = 0

    ``sharpness`` controls the decay rate: higher values front-load the drop
    (the importance plunges early in the wane window), and as
    ``sharpness → 0`` the curve approaches the linear wane.
    """

    p: float
    t_persist: float
    t_wane: float
    sharpness: float = 3.0

    def __post_init__(self) -> None:
        _check_unit_interval(self.p, "exponential-wane importance p")
        _check_minutes(self.t_persist, "t_persist")
        _check_minutes(self.t_wane, "t_wane")
        if math.isnan(self.sharpness) or self.sharpness <= 0.0:
            raise AnnotationError(f"sharpness must be > 0, got {self.sharpness!r}")

    @property
    def t_expire(self) -> float:
        return self.t_persist + self.t_wane

    @property
    def stable_until(self) -> float:
        return self.t_persist

    def importance_at(self, age_minutes: float) -> float:
        age = self._clamp_age(age_minutes)
        if age >= self.t_expire:
            return 0.0
        if age <= self.t_persist:
            return self.p
        # Strictly inside the wane window, so t_wane > 0 here.
        x = (age - self.t_persist) / self.t_wane
        k = self.sharpness
        # Truncated exponential: continuous, monotone, hits 0 at x = 1.
        return self.p * (math.exp(-k * x) - math.exp(-k)) / (1.0 - math.exp(-k))


@dataclass(frozen=True, slots=True)
class StepWaneImportance(ImportanceFunction):
    """Two-step function whose wane descends in ``steps`` discrete drops.

    Another wane-shape ablation: instead of a smooth ramp the importance
    falls in equal stairs, modelling systems that only re-evaluate object
    value at coarse intervals (e.g. nightly).  With ``steps = 1`` this is
    fixed-priority expiration over ``t_persist + t_wane``.
    """

    p: float
    t_persist: float
    t_wane: float
    steps: int = 4

    def __post_init__(self) -> None:
        _check_unit_interval(self.p, "step-wane importance p")
        _check_minutes(self.t_persist, "t_persist")
        _check_minutes(self.t_wane, "t_wane")
        if self.steps < 1:
            raise AnnotationError(f"steps must be >= 1, got {self.steps!r}")

    @property
    def t_expire(self) -> float:
        return self.t_persist + self.t_wane

    @property
    def stable_until(self) -> float:
        return self.t_persist

    def importance_at(self, age_minutes: float) -> float:
        age = self._clamp_age(age_minutes)
        if age >= self.t_expire:
            return 0.0
        if age <= self.t_persist:
            return self.p
        # Strictly inside the wane window, so t_wane > 0 here.
        x = (age - self.t_persist) / self.t_wane  # in (0, 1)
        stair = int(x * self.steps)  # 0 .. steps-1
        return self.p * (self.steps - 1 - stair) / self.steps if self.steps > 1 else self.p

    # NOTE: with steps > 1 the first stair starts one notch below p so that
    # the function is strictly lower inside the wane window than during the
    # persistence window, mirroring the linear wane's open interval.


@dataclass(frozen=True)
class PiecewiseLinearImportance(ImportanceFunction):
    """"General function": arbitrary monotone non-increasing importance.

    ``points`` is a sequence of ``(age_minutes, importance)`` knots sorted by
    age; importance is linearly interpolated between knots, constant at the
    first knot's value before it, and constant at the last knot's value
    after it.  If the final importance is non-zero the function never
    expires (``t_expire = ∞``).

    Raises :class:`~repro.errors.AnnotationError` on unsorted ages, values
    outside ``[0, 1]`` or any increase in importance.
    """

    points: tuple[tuple[float, float], ...]

    def __init__(self, points: Sequence[tuple[float, float]]):
        knots = tuple((float(a), float(v)) for a, v in points)
        if not knots:
            raise AnnotationError("piecewise-linear importance needs at least one point")
        prev_age = -math.inf
        prev_val = math.inf
        for age, val in knots:
            _check_minutes(age, "knot age")
            _check_unit_interval(val, "knot importance")
            if age <= prev_age:
                raise AnnotationError(f"knot ages must be strictly increasing at age {age}")
            if val > prev_val + _EPS:
                raise AnnotationError(
                    f"importance must be non-increasing; {val} > {prev_val} at age {age}"
                )
            prev_age, prev_val = age, val
        object.__setattr__(self, "points", knots)

    @property
    def t_expire(self) -> float:
        last_age, last_val = self.points[-1]
        if last_val > 0.0:
            return math.inf
        # Walk back to the first knot where importance hits zero for good.
        expire = last_age
        for age, val in reversed(self.points):
            if val > 0.0:
                break
            expire = age
        return expire

    @property
    def stable_until(self) -> float:
        # Constant at the first knot's value up to (and including) its age.
        # Later knots may extend the plateau, but this bound is always safe.
        return self.points[0][0]

    def importance_at(self, age_minutes: float) -> float:
        age = self._clamp_age(age_minutes)
        pts = self.points
        if age <= pts[0][0]:
            return pts[0][1]
        if age >= pts[-1][0]:
            return pts[-1][1]
        # Binary search for the bracketing segment.
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] <= age:
                lo = mid
            else:
                hi = mid
        a0, v0 = pts[lo]
        a1, v1 = pts[hi]
        frac = (age - a0) / (a1 - a0)
        return v0 + frac * (v1 - v0)


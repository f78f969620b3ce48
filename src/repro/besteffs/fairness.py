"""Fair resource allocation via importance budgets (paper Sections 1, 4.1).

"On a multi-user system, the system should restrict the importance
functions for fairness, lest every user request infinite lifetime,
essentially reverting to the traditional persistent until deleted model."

The currency that makes this precise is the **importance integral** of an
annotation — the area under ``L(t)`` times the object size::

    cost = size_bytes * ∫ L(t) dt        [byte-importance-minutes]

An infinite-lifetime annotation has infinite cost; a cache-grade object
costs nothing.  :class:`FairShareLedger` grants each principal a budget of
byte-importance-minutes per accounting period and debits each store; a
request whose annotation would overdraw the budget is refused *before*
the storage is consulted, so greedy annotations cannot crowd out other
users regardless of storage pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from repro.errors import ReproError

__all__ = ["FairnessError", "importance_integral", "annotation_cost", "FairShareLedger"]


class FairnessError(ReproError):
    """A store request would exceed the principal's fair-share budget."""


def importance_integral(func: ImportanceFunction) -> float:
    """``∫ L(t) dt`` in importance-minutes (``inf`` for persistent data).

    Closed forms are used for the built-in family; unknown monotone
    functions are integrated numerically with the trapezoid rule over
    their (finite) support.
    """
    if isinstance(func, DiracImportance):
        return 0.0
    if isinstance(func, ConstantImportance):
        return math.inf if func.p > 0.0 else 0.0
    if isinstance(func, FixedLifetimeImportance):
        return func.p * func.expire_after
    if isinstance(func, TwoStepImportance):
        # Rectangle plus a triangle under the linear wane.
        return func.p * func.t_persist + 0.5 * func.p * func.t_wane
    if isinstance(func, StepWaneImportance):
        rect = func.p * func.t_persist
        if func.t_wane <= 0.0:
            return rect
        if func.steps == 1:
            return rect + func.p * func.t_wane
        stair_values = [
            func.p * (func.steps - 1 - s) / func.steps for s in range(func.steps)
        ]
        return rect + sum(stair_values) * (func.t_wane / func.steps)
    if isinstance(func, ExponentialWaneImportance):
        if func.t_wane <= 0.0:
            return func.p * func.t_persist
        k = func.sharpness
        # ∫0..1 (e^{-kx} - e^{-k}) / (1 - e^{-k}) dx, scaled by p * t_wane.
        numer = (1.0 - math.exp(-k)) / k - math.exp(-k)
        wane = func.p * func.t_wane * numer / (1.0 - math.exp(-k))
        return func.p * func.t_persist + wane
    if isinstance(func, PiecewiseLinearImportance):
        if math.isinf(func.t_expire):
            return math.inf
        return _trapezoid(func)
    # Unknown monotone function with finite support: numeric fallback.
    if math.isinf(func.t_expire):
        return math.inf
    return _numeric(func)


def _trapezoid(func: PiecewiseLinearImportance) -> float:
    total = 0.0
    points = [(0.0, func.importance_at(0.0)), *func.points]
    for (a0, v0), (a1, v1) in zip(points, points[1:]):
        if a1 <= a0:
            continue
        total += 0.5 * (v0 + v1) * (a1 - a0)
    return total


def _numeric(func: ImportanceFunction, samples: int = 4097) -> float:
    horizon = func.t_expire
    step = horizon / (samples - 1)
    values = [func.importance_at(i * step) for i in range(samples)]
    return step * (sum(values) - 0.5 * (values[0] + values[-1]))


def annotation_cost(obj: StoredObject) -> float:
    """Fair-share cost of storing ``obj``: size × importance integral."""
    return obj.size * importance_integral(obj.lifetime)


@dataclass
class FairShareLedger:
    """Per-principal budgets of byte-importance-minutes.

    ``period_minutes`` bounds how long a debit weighs against a principal:
    the ledger keeps per-period buckets and a request is checked against
    the *current* period's remaining budget, so budgets refresh over time
    without any central coordination (each node can keep its own ledger,
    or a client library can self-police).
    """

    budget_per_period: float
    period_minutes: float
    #: period index -> principal -> spent cost
    _spent: dict[int, dict[str, float]] = field(default_factory=dict)
    #: Debit transactions applied (bulk charges count once — the number
    #: the serving layer's write coalescing drives down).
    transactions: int = 0

    def __post_init__(self) -> None:
        if self.budget_per_period <= 0 or math.isnan(self.budget_per_period):
            raise FairnessError("budget must be positive")
        if self.period_minutes <= 0:
            raise FairnessError("period must be positive")

    def _period(self, now: float) -> int:
        return int(now // self.period_minutes)

    def remaining(self, principal: str, now: float) -> float:
        """Budget left for ``principal`` in the current period."""
        period = self._spent.get(self._period(now), {})
        return self.budget_per_period - period.get(principal, 0.0)

    def charge(self, principal: str, obj: StoredObject, now: float) -> float:
        """Debit the cost of ``obj``; raises :class:`FairnessError` if over.

        Returns the cost charged.  Infinite-cost annotations (persistent
        data) are always refused — the paper's point: unconstrained users
        would simply request infinite lifetimes.
        """
        cost = annotation_cost(obj)
        if math.isinf(cost):
            raise FairnessError(
                f"{principal!r} requested a non-expiring annotation; "
                "persistent objects are outside the fair-share store"
            )
        remaining = self.remaining(principal, now)
        if cost > remaining:
            raise FairnessError(
                f"{principal!r} needs {cost:.3g} byte-importance-minutes but "
                f"only {remaining:.3g} remain this period"
            )
        bucket = self._spent.setdefault(self._period(now), {})
        bucket[principal] = bucket.get(principal, 0.0) + cost
        self.transactions += 1
        return cost

    def charge_many(self, principal: str, costs: list[float], now: float) -> float:
        """Debit several same-principal costs as **one** ledger transaction.

        The batched write path merges the byte charges of coalesced
        same-class small writes into a single debit — one bucket update
        instead of ``len(costs)``.  All-or-nothing: raises
        :class:`FairnessError` when the combined total (or any single
        cost) does not fit the remaining budget, and callers fall back to
        per-request :meth:`charge` so partial admission under budget
        pressure keeps its sequential semantics.  When the total *does*
        fit, the bulk debit is outcome-equivalent to charging each cost
        in order: refunds only ever add budget back, so no member of a
        fitting group could have been refused sequentially.
        """
        total = sum(costs)
        if math.isinf(total) or math.isnan(total):
            raise FairnessError(
                f"{principal!r} requested a non-expiring annotation; "
                "persistent objects are outside the fair-share store"
            )
        remaining = self.remaining(principal, now)
        if total > remaining:
            raise FairnessError(
                f"{principal!r} needs {total:.3g} byte-importance-minutes "
                f"across {len(costs)} writes but only {remaining:.3g} "
                "remain this period"
            )
        bucket = self._spent.setdefault(self._period(now), {})
        bucket[principal] = bucket.get(principal, 0.0) + total
        self.transactions += 1
        return total

    def refund(self, principal: str, cost: float, now: float) -> None:
        """Return a previously charged cost (e.g. the store rejected)."""
        bucket = self._spent.setdefault(self._period(now), {})
        bucket[principal] = max(0.0, bucket.get(principal, 0.0) - cost)

    def spent(self, principal: str, now: float) -> float:
        """Cost charged to ``principal`` in the current period."""
        return self._spent.get(self._period(now), {}).get(principal, 0.0)

"""Property-based tests of the importance-function invariants (hypothesis).

The paper's contract (Section 3): every lifetime function is monotone
non-increasing over age, bounded to [0, 1], and zero at/after t_expire.
These properties are checked for randomly parameterised members of the
whole built-in family.

The last section pins the *float* contract of the batch evaluator
``ImportanceFunction.wane_terms``: the two-step wane arithmetic is spelled
out in four places (``TwoStepImportance.importance_at`` and ``wane_terms``,
``victims._two_step``, ``victims._Family.entry_at``), and the index's
density probe is bit-identical to the naive scan only while they all
perform the same operations in the same order.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.annotations import validate_importance_function
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
from repro.core.obj import StoredObject
from repro.core.victims import key_evaluator

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
duration = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)
age = st.floats(min_value=0.0, max_value=2e7, allow_nan=False)


@st.composite
def two_steps(draw):
    return TwoStepImportance(
        p=draw(unit), t_persist=draw(duration), t_wane=draw(duration)
    )


@st.composite
def exp_wanes(draw):
    return ExponentialWaneImportance(
        p=draw(unit),
        t_persist=draw(duration),
        t_wane=draw(duration),
        sharpness=draw(st.floats(min_value=0.1, max_value=20.0, allow_nan=False)),
    )


@st.composite
def step_wanes(draw):
    return StepWaneImportance(
        p=draw(unit),
        t_persist=draw(duration),
        t_wane=draw(duration),
        steps=draw(st.integers(min_value=1, max_value=12)),
    )


@st.composite
def piecewise(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    ages = sorted(draw(st.lists(duration, min_size=n, max_size=n, unique=True)))
    values = sorted(draw(st.lists(unit, min_size=n, max_size=n)), reverse=True)
    return PiecewiseLinearImportance(list(zip(ages, values)))


@st.composite
def any_function(draw):
    kind = draw(st.integers(min_value=0, max_value=6))
    if kind == 0:
        return ConstantImportance(p=draw(unit))
    if kind == 1:
        return DiracImportance()
    if kind == 2:
        return FixedLifetimeImportance(p=draw(unit), expire_after=draw(duration))
    if kind == 3:
        return draw(two_steps())
    if kind == 4:
        return draw(exp_wanes())
    if kind == 5:
        return draw(step_wanes())
    return draw(piecewise())


@st.composite
def maybe_scaled(draw):
    func = draw(any_function())
    if draw(st.booleans()):
        factor = draw(st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
        return ScaledImportance(inner=func, factor=factor)
    return func


@given(func=maybe_scaled(), a=age, b=age)
@settings(max_examples=300)
def test_monotone_non_increasing(func, a, b):
    lo, hi = min(a, b), max(a, b)
    assert func.importance_at(lo) >= func.importance_at(hi) - 1e-12


@given(func=maybe_scaled(), t=age)
@settings(max_examples=300)
def test_range_is_unit_interval(func, t):
    value = func.importance_at(t)
    assert 0.0 <= value <= 1.0


@given(func=maybe_scaled(), extra=duration)
@settings(max_examples=200)
def test_zero_at_and_after_expiry(func, extra):
    expire = func.t_expire
    if math.isinf(expire):
        return
    assert func.importance_at(expire + extra) == 0.0


@given(func=maybe_scaled(), t=age)
@settings(max_examples=200)
def test_remaining_lifetime_consistent_with_expiry(func, t):
    remaining = func.remaining_lifetime(t)
    assert remaining >= 0.0
    if math.isinf(func.t_expire):
        assert math.isinf(remaining)
    else:
        assert remaining == max(0.0, func.t_expire - t)


@given(func=maybe_scaled())
@settings(max_examples=150)
def test_sampling_validator_accepts_every_builtin(func):
    validate_importance_function(func)


@given(func=maybe_scaled(), t=age)
@settings(max_examples=200)
def test_is_expired_iff_importance_zero_forever(func, t):
    if func.is_expired(t):
        assert func.importance_at(t) == 0.0
        assert func.importance_at(t + 1e6) == 0.0


# -- wane_terms: the batch evaluator's float contract ---------------------------

#: Durations and probe times on the integer-minute grid as well as off it:
#: the victim superfamilies only answer on the grid, the index everywhere.
grid_or_not = st.one_of(
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    st.integers(min_value=0, max_value=10**7).map(float),
)


@st.composite
def nested_scaled(draw):
    """Every subclass, wrapped in zero to two ``ScaledImportance`` layers."""
    func = draw(
        st.one_of(
            any_function(),
            st.builds(
                TwoStepImportance,
                p=st.one_of(unit, st.sampled_from([0.0, 1.0])),
                t_persist=grid_or_not,
                t_wane=grid_or_not,
            ),
        )
    )
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        factor = draw(st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
        func = ScaledImportance(inner=func, factor=factor)
    return func


@given(
    func=nested_scaled(),
    now=grid_or_not.map(lambda t: t + 2e7),
    members=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
            st.integers(min_value=1, max_value=2**40),
        ),
        min_size=1,
        max_size=8,
    ),
    on_grid=st.booleans(),
)
@settings(max_examples=500)
def test_wane_terms_are_bit_identical_to_the_per_object_chain(func, now, members, on_grid):
    stable, expire = func.stable_until, func.t_expire
    if not stable < expire:
        return  # no wane window: the index never builds a column for it
    width = (expire if math.isfinite(expire) else stable + 1e7) - stable
    objs = []
    for i, (fraction, size) in enumerate(members):
        t_arrival = now - (stable + fraction * width)
        if on_grid:
            t_arrival = float(math.floor(t_arrival))
        objs.append(StoredObject(size=size, t_arrival=t_arrival, lifetime=func, object_id=f"o{i}"))
    # The precondition, by the predicates the index classifies with.
    waning = [o for o in objs if not o.is_expired_at(now) and o.age_at(now) > stable]
    assume(waning)
    terms = func.wane_terms(now, [o.t_arrival for o in waning], [o.size for o in waning])
    assert len(terms) == len(waning)
    evaluator = key_evaluator(func)
    for obj, term in zip(waning, terms):
        expect = obj.importance_at(now) * obj.size
        assert term.hex() == expect.hex()
        if evaluator is not None:
            assert (evaluator(obj, now)[0] * obj.size).hex() == expect.hex()

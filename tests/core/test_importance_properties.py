"""Property-based tests of the importance-function invariants (hypothesis).

The paper's contract (Section 3): every lifetime function is monotone
non-increasing over age, bounded to [0, 1], and zero at/after t_expire.
These properties are checked for randomly parameterised members of the
whole built-in family.

The last section pins the *float* contract of the victim families: a
waning two-step resident on the integer grid lives only in its
``(p, t_wane)`` family, whose density terms and merge-head keys go through
``linear_wane`` at ``remaining = E - now``.  The index's density probe and
victim merge are bit-identical to the naive scan only while those equal
the per-object ``StoredObject`` chain.
"""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.annotations import validate_importance_function
from repro.core.importance import (
    ConstantImportance,
    DiracImportance,
    ExponentialWaneImportance,
    FixedLifetimeImportance,
    PiecewiseLinearImportance,
    StepWaneImportance,
    TwoStepImportance,
)
from repro.core.obj import StoredObject
from repro.core.index import Resident
from repro.core.victims import GroupedResidents

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


@given(func=any_function(), a=age, b=age)
@settings(max_examples=300)
def test_monotone_non_increasing(func, a, b):
    lo, hi = min(a, b), max(a, b)
    assert func.importance_at(lo) >= func.importance_at(hi) - 1e-12


@given(func=any_function(), t=age)
@settings(max_examples=300)
def test_range_is_unit_interval(func, t):
    value = func.importance_at(t)
    assert 0.0 <= value <= 1.0


@given(func=any_function(), extra=duration)
@settings(max_examples=200)
def test_zero_at_and_after_expiry(func, extra):
    expire = func.t_expire
    if math.isinf(expire):
        return
    assert func.importance_at(expire + extra) == 0.0


@given(func=any_function(), t=age)
@settings(max_examples=200)
def test_remaining_lifetime_consistent_with_expiry(func, t):
    remaining = func.remaining_lifetime(t)
    assert remaining >= 0.0
    if math.isinf(func.t_expire):
        assert math.isinf(remaining)
    else:
        assert remaining == max(0.0, func.t_expire - t)


@given(func=any_function())
@settings(max_examples=150)
def test_sampling_validator_accepts_every_builtin(func):
    validate_importance_function(func)


@given(func=any_function(), t=age)
@settings(max_examples=200)
def test_is_expired_iff_importance_zero_forever(func, t):
    if func.is_expired(t):
        assert func.importance_at(t) == 0.0
        assert func.importance_at(t + 1e6) == 0.0


# -- victim families: the wane term's float contract ---------------------------

#: Probe times on the integer-minute grid as well as off it: the victim
#: merge only answers on the grid, the density probe everywhere.
grid_or_not = st.one_of(
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    st.integers(min_value=0, max_value=10**7).map(float),
)
grid_duration = st.integers(min_value=0, max_value=10**7).map(float)


@given(
    p=st.one_of(unit, st.sampled_from([0.0, 1.0])),
    t_wane=grid_duration,
    now=grid_or_not.map(lambda t: t + 2e7),
    members=st.lists(
        st.tuples(
            grid_duration,
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
            st.integers(min_value=1, max_value=2**40),
            st.booleans(),
        ),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=500)
# The inlined wane always runs: three members inside their wane window.
@example(
    p=0.3, t_wane=1000.0, now=20000050.5,
    members=[(10.0, 0.5, 1000, False), (20.0, 0.25, 7, True), (30.0, 0.1, 3, False)],
)
def test_wane_terms_are_bit_identical_to_the_per_object_chain(p, t_wane, now, members):
    groups = GroupedResidents()
    objs = []
    for i, (t_persist, fraction, size, other_p) in enumerate(members):
        func = TwoStepImportance(p=p / 2 if other_p else p, t_persist=t_persist, t_wane=t_wane)
        t_arrival = float(math.floor(now - (t_persist + fraction * t_wane)))
        obj = StoredObject(
            size=size, t_arrival=max(0.0, t_arrival), lifetime=func, object_id=f"o{i}"
        )
        groups.add(Resident(obj, i, 0.0))
        objs.append(obj)
    # The waning run is the set the index's phase predicates pick ...
    waning = {
        o.object_id for o in objs
        if not o.is_expired_at(now) and o.age_at(now) > o.lifetime.stable_until
    }
    assume(waning)
    run = groups.waning_members(now)
    assert {o.object_id for o in run} == waning and len(run) == len(waning)
    # ... and each of its terms is the per-object term, bit for bit.
    for obj, term in zip(run, groups.wane_terms(now)):
        assert term.hex() == (obj.importance_at(now) * obj.size).hex()
    # On the grid, every live member's merge key is the per-object key.
    if now.is_integer():
        for family in groups._families.values():
            for pos, rec in enumerate(family.members):
                obj = rec.obj
                if obj.is_expired_at(now):
                    continue
                imp, rem = family.entry_at(pos, now)[:2]
                assert imp.hex() == obj.importance_at(now).hex()
                assert rem.hex() == obj.remaining_lifetime_at(now).hex()

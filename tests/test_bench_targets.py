"""Every callable the benchmark's tracer wraps still exists.

``bench.trace.install`` resolves each :data:`bench.trace.TARGETS` path with
``vars(owner)[attr]``, so a renamed or deleted name is a ``KeyError`` in
the traced benchmark run, which the tier-1 suite does not otherwise reach.
"""

import pytest

from bench.trace import TARGETS, resolve


@pytest.mark.parametrize("target", TARGETS, ids=lambda target: target.where)
def test_trace_target_resolves(target):
    owner, attr, _value = resolve(target.where)
    assert attr in vars(owner)

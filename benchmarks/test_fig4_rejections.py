"""Bench: Figure 4 — requests turned down because of full storage."""

from benchmarks.conftest import run_once
from repro.experiments import fig4_rejections as mod
from repro.experiments.common import (
    POLICY_NO_IMPORTANCE,
    POLICY_PALIMPSEST,
    POLICY_TEMPORAL,
)
from repro.sim.parallel import RunSpec


def test_fig4_rejections(benchmark, save_artifact):
    result = run_once(
        benchmark,
        mod.execute,
        RunSpec("fig4", {"capacities_gib": (80, 120)}, seed=42, horizon_days=365.0),
    )

    for capacity in (80, 120):
        fixed = result.totals[(capacity, POLICY_NO_IMPORTANCE)]
        temporal = result.totals[(capacity, POLICY_TEMPORAL)]
        fifo = result.totals[(capacity, POLICY_PALIMPSEST)]
        # Paper: storage is never full for Palimpsest; the no-importance
        # policy rejects many more than temporal importance.
        assert fifo == 0
        assert fixed > temporal
        assert fixed > 0

    # More storage means fewer rejections for both rejecting policies.
    assert (
        result.totals[(120, POLICY_NO_IMPORTANCE)]
        < result.totals[(80, POLICY_NO_IMPORTANCE)]
    )
    assert (
        result.totals[(120, POLICY_TEMPORAL)]
        <= result.totals[(80, POLICY_TEMPORAL)]
    )

    save_artifact("fig4", mod.render(result))

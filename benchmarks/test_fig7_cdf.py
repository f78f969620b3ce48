"""Bench: Figure 7 — byte-importance CDF at density ≈ 0.8369."""

from benchmarks.conftest import run_once
from repro.experiments import fig7_cdf as mod
from repro.sim.parallel import RunSpec


def test_fig7_cdf(benchmark, save_artifact):
    result = run_once(
        benchmark,
        mod.execute,
        RunSpec("fig7", {"capacity_gib": 80}, seed=42, horizon_days=365.0),
    )

    # The snapshot really was taken near the paper's density.
    assert abs(result.density_at_snapshot - mod.PAPER_DENSITY) <= 0.02

    # Paper: "57% of the bytes have storage importance one"; allow a band.
    assert 0.40 <= result.fraction_importance_one <= 0.75

    # Paper: "objects with importance less than 0.25 cannot be stored" —
    # a positive cut-off exists well above zero.
    assert result.min_storable_importance >= 0.05

    # The CDF is well-formed: monotone, ending at 1.0.
    fracs = [f for _imp, f in result.cdf]
    assert fracs == sorted(fracs)
    assert fracs[-1] == 1.0

    save_artifact("fig7", mod.render(result))

"""Bench: Figure 12 — storage importance density, lecture scenario."""

from benchmarks.conftest import run_once
from repro.experiments import fig12_lecture_density as mod
from repro.sim.parallel import RunSpec


def test_fig12_lecture_density(benchmark, save_artifact):
    result = run_once(
        benchmark,
        mod.execute,
        RunSpec("fig12", {"capacities_gib": (80, 120)}, seed=42, horizon_days=3 * 365.0),
    )

    for capacity, series in result.series.items():
        assert all(0.0 <= d <= 1.0 for _t, d in series)

    # Paper: the average density is a good predictor of pressure — high
    # at 80 GB and visibly lower once storage is added.
    assert result.plateau_density[80] > 0.6
    assert result.plateau_density[80] > result.plateau_density[120]
    assert result.mean_density[80] > result.mean_density[120]

    save_artifact("fig12", mod.render(result))

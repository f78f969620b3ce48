"""Bench: Figure 5 — Palimpsest time constant at three window sizes."""

from benchmarks.conftest import run_once
from repro.experiments import fig5_timeconstant as mod
from repro.sim.parallel import RunSpec


def test_fig5_timeconstant(benchmark, save_artifact):
    result = run_once(
        benchmark,
        mod.execute,
        RunSpec("fig5", {"capacity_gib": 80}, seed=42, horizon_days=365.0),
    )

    # Paper: hourly estimates vary considerably, daily estimates are
    # heteroscedastic, month-scale windows are the most stable.
    cv_hour = result.stability["hour"]["cv"]
    cv_day = result.stability["day"]["cv"]
    cv_month = result.stability["month"]["cv"]
    assert cv_hour > cv_day > cv_month
    assert cv_hour > 1.0  # "varied considerably"

    # The sparse workload leaves many silent hours — exactly why a client
    # sampling an hour learns so little.
    assert result.stability["hour"]["empty_windows"] > 1000

    # The daily series rejects homoscedasticity (Section 5.1.2).
    assert result.daily_bp is not None
    assert result.daily_bp.heteroscedastic()

    save_artifact("fig5", mod.render(result))

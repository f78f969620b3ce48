"""Bench: Figure 11 — time constant in the lecture scenario."""

from benchmarks.conftest import run_once
from repro.experiments import fig11_lecture_timeconstant as mod
from repro.sim.parallel import RunSpec


def test_fig11_lecture_timeconstant(benchmark, save_artifact):
    result = run_once(
        benchmark,
        mod.execute,
        RunSpec("fig11", {"capacity_gib": 80}, seed=42, horizon_days=3 * 365.0),
    )

    # Paper: "the time constant is not a good predictor even using a time
    # range of a month" — the calendar's breaks keep month-scale estimates
    # unstable (CV well above the ~0.1 a usable predictor would need).
    assert result.stability["month"]["cv"] > 0.3

    # Worse than variance: the answer depends wildly on the window chosen.
    # Burst hours extrapolate to a tiny sojourn while month windows
    # average in the silence — an order of magnitude apart or more.
    assert result.stability["month"]["mean"] > 10 * result.stability["hour"]["mean"]

    # Huge fractions of hours and whole days are silent (breaks/weekends),
    # which is what starves short-window estimation.
    assert result.stability["hour"]["empty_windows"] > 10_000
    assert result.stability["day"]["empty_windows"] > 100

    save_artifact("fig11", mod.render(result))

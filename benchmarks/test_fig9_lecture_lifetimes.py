"""Bench: Figure 9 — lecture-capture lifetimes achieved by creator."""

from benchmarks.conftest import run_once
from repro.experiments import fig9_lecture_lifetimes as mod
from repro.sim.parallel import RunSpec


def test_fig9_lecture_lifetimes(benchmark, save_artifact):
    result = run_once(
        benchmark,
        mod.execute,
        RunSpec("fig9", {"capacities_gib": (80, 120)}, seed=42, horizon_days=3 * 365.0),
    )

    # Paper: university objects achieve hundreds of days at 80 GB while
    # student objects are squeezed; capacity helps students without any
    # annotation change.
    assert result.mean_days[(80, "university")] > 150
    assert (
        result.mean_days[(80, "student")]
        < result.mean_days[(80, "university")] / 2
    )
    assert result.mean_days[(120, "student")] > result.mean_days[(80, "student")]
    assert (
        result.mean_days[(120, "university")]
        > result.mean_days[(80, "university")]
    )

    # Palimpsest offers no differentiation between creators (within 25%).
    for capacity in (80, 120):
        university = result.palimpsest_mean_days[(capacity, "university")]
        student = result.palimpsest_mean_days[(capacity, "student")]
        assert abs(university - student) <= 0.25 * max(university, student)

    save_artifact("fig9", mod.render(result))

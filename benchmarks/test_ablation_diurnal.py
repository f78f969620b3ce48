"""Ablation bench: diurnal/holiday realism vs the time-constant estimator.

Section 5.1 notes "in realistic deployments, these rates may depend on
the time of the day and account for holidays".  This bench adds that
realism (office-hours profile, 30 % weekends, two semester-break holiday
windows) to the Section 5.1 workload and measures what it does to each
side of the paper's comparison:

* the temporal-importance store keeps working — same annotations, the
  lighter offered load simply means less pressure;
* the Palimpsest **time constant gets even harder to estimate**: silent
  nights/holidays multiply empty windows and the day-scale CV grows.
"""

from benchmarks.conftest import run_once
from repro.analysis.timeconstant import (
    WINDOW_DAY,
    WINDOW_HOUR,
    estimate_time_constants,
)
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.sim.recorder import Recorder
from repro.sim.runner import run_single_store
from repro.sim.workload.diurnal import (
    OFFICE_HOURS_PROFILE,
    DiurnalModulation,
    DiurnalProfile,
    semester_break_holidays,
)
from repro.sim.workload.single_app import SingleAppWorkload
from repro.units import days, gib


def run_comparison(horizon_days=365.0, seed=42):
    profile = DiurnalProfile(
        hourly=OFFICE_HOURS_PROFILE.hourly,
        weekend_factor=OFFICE_HOURS_PROFILE.weekend_factor,
        holidays=semester_break_holidays(
            int(horizon_days), [(120, 150), (210, 248)]
        ),
    )
    out = {}
    for name, diurnal in (("flat", False), ("diurnal", True)):
        workload = SingleAppWorkload(seed=seed, arrival_probability=1.0)
        arrivals = (
            DiurnalModulation(inner=workload, profile=profile, seed=seed).arrivals(
                days(horizon_days)
            )
            if diurnal
            else workload.arrivals(days(horizon_days))
        )
        store = StorageUnit(gib(80), TemporalImportancePolicy(), name=f"diur-{name}")
        result = run_single_store(
            store, arrivals, days(horizon_days), recorder=Recorder()
        )
        hourly = estimate_time_constants(
            result.recorder.arrivals, gib(80), WINDOW_HOUR, t_end=days(horizon_days)
        )
        daily = estimate_time_constants(
            result.recorder.arrivals, gib(80), WINDOW_DAY, t_end=days(horizon_days)
        )
        out[name] = {
            "rejected": len(result.recorder.rejections),
            "mean_density": result.summary["mean_density"],
            "hour_empty": hourly.empty_windows,
            "hour_cv": hourly.stability()["cv"],
            "day_cv": daily.stability()["cv"],
        }
    return out


def test_ablation_diurnal(benchmark, save_artifact):
    results = run_once(benchmark, run_comparison)

    flat, diurnal = results["flat"], results["diurnal"]

    # The diurnal store still works: density bounded, fewer rejections
    # under the lighter offered load.
    assert 0.0 <= diurnal["mean_density"] <= 1.0
    assert diurnal["rejected"] <= flat["rejected"]

    # Estimation gets harder: silent hours multiply, day-scale variance up.
    assert diurnal["hour_empty"] > flat["hour_empty"] * 1.5
    assert diurnal["day_cv"] > flat["day_cv"]

    lines = ["Ablation: diurnal/holiday realism (80 GiB, 1 year)"]
    for name, stats in results.items():
        lines.append(
            f"  {name:8s} rejected={stats['rejected']:5d} "
            f"density={stats['mean_density']:.3f} "
            f"empty-hour-windows={stats['hour_empty']:5.0f} "
            f"hour CV={stats['hour_cv']:.2f} day CV={stats['day_cv']:.2f}"
        )
    save_artifact("ablation_diurnal", "\n".join(lines))

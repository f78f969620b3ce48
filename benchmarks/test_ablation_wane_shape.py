"""Ablation bench: wane shape — linear vs exponential vs stepped.

Section 3.1: "The diminishing component could be linear, exponential or
some other function.  For simplicity, we chose a linear function."  This
bench quantifies what the choice costs: a sharper (exponential) wane frees
space sooner (shorter achieved lifetimes, fewer rejections), a stepped
wane behaves like coarse re-evaluation, and the linear default sits in
between — so the paper's simplicity pick is not load-bearing.
"""

from benchmarks.conftest import run_once
from repro.core.importance import (
    ExponentialWaneImportance,
    StepWaneImportance,
    TwoStepImportance,
)
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.sim.recorder import Recorder
from repro.sim.runner import run_single_store
from repro.sim.workload.single_app import SingleAppWorkload
from repro.units import days, gib, to_days

SHAPES = {
    "linear": TwoStepImportance(p=1.0, t_persist=days(15), t_wane=days(15)),
    "exponential": ExponentialWaneImportance(
        p=1.0, t_persist=days(15), t_wane=days(15), sharpness=4.0
    ),
    "stepped": StepWaneImportance(p=1.0, t_persist=days(15), t_wane=days(15), steps=4),
}


def run_all(horizon_days=365.0, seed=42):
    out = {}
    for name, lifetime in SHAPES.items():
        store = StorageUnit(gib(80), TemporalImportancePolicy(), name=f"wane-{name}")
        workload = SingleAppWorkload(lifetime=lifetime, seed=seed)
        result = run_single_store(
            store, workload.arrivals(days(horizon_days)), days(horizon_days),
            recorder=Recorder(),
        )
        evictions = [r for r in result.recorder.evictions if r.reason == "preempted"]
        out[name] = {
            "rejected": len(result.recorder.rejections),
            "mean_life_days": (
                sum(to_days(r.achieved_lifetime) for r in evictions) / len(evictions)
            ),
            "mean_density": result.summary["mean_density"],
        }
    return out


def test_ablation_wane_shape(benchmark, save_artifact):
    results = run_once(benchmark, run_all)

    # All shapes share t_persist/t_expire, so the qualitative behaviour is
    # identical: pressure is absorbed by waning objects, not rejections.
    for name, stats in results.items():
        assert stats["rejected"] < 200, name
        assert 15.0 <= stats["mean_life_days"] <= 31.0, name

    # A sharper wane cedes space earlier: achieved lifetimes shorten and
    # the store runs at a lower importance density than the linear default.
    assert results["exponential"]["mean_life_days"] <= results["linear"]["mean_life_days"]
    assert results["exponential"]["mean_density"] <= results["linear"]["mean_density"]

    lines = ["Ablation: wane shape (80 GiB, 1 year, Section 5.1 workload)"]
    for name, stats in results.items():
        lines.append(
            f"  {name:12s} rejected={stats['rejected']:4d} "
            f"mean_life={stats['mean_life_days']:.1f}d "
            f"density={stats['mean_density']:.3f}"
        )
    save_artifact("ablation_wane_shape", "\n".join(lines))

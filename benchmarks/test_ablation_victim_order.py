"""Ablation bench: victim ordering — paper rule vs size-weighted greedy.

The paper's admission rule compares the incoming object against the
*highest* preempted importance and is explicitly not size-weighted.  The
:class:`GreedySizePolicy` ablation prefers large victims within an
importance bucket and admits on the size-weighted mean.  This bench
measures the trade: the greedy policy admits more under pressure (fewer
rejections) but sacrifices some higher-importance bytes to do it.
"""

from benchmarks.conftest import run_once
from repro.core.policies.greedy_size import GreedySizePolicy
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.sim.recorder import Recorder
from repro.sim.runner import run_single_store
from repro.sim.workload.single_app import SingleAppWorkload
from repro.units import days, gib


def run_both(horizon_days=365.0, seed=42):
    out = {}
    for name, policy in (
        ("paper-max", TemporalImportancePolicy()),
        ("size-weighted", GreedySizePolicy()),
    ):
        store = StorageUnit(gib(80), policy, name=name)
        workload = SingleAppWorkload(seed=seed)
        result = run_single_store(
            store, workload.arrivals(days(horizon_days)), days(horizon_days),
            recorder=Recorder(),
        )
        evictions = [r for r in result.recorder.evictions if r.reason == "preempted"]
        importances = [r.importance_at_eviction for r in evictions]
        out[name] = {
            "rejected": len(result.recorder.rejections),
            "admitted": result.recorder.admitted_count(),
            "max_evicted_importance": max(importances),
            "mean_evicted_importance": sum(importances) / len(importances),
        }
    return out


def test_ablation_victim_order(benchmark, save_artifact):
    results = run_once(benchmark, run_both)

    paper = results["paper-max"]
    greedy = results["size-weighted"]

    # The size-weighted rule admits at least as much (it relaxes the
    # admission comparison to a mean)...
    assert greedy["rejected"] <= paper["rejected"]
    assert greedy["admitted"] >= paper["admitted"]

    # ...but it is willing to sacrifice higher-importance victims than the
    # paper rule ever does.
    assert greedy["max_evicted_importance"] >= paper["max_evicted_importance"]

    lines = ["Ablation: victim ordering (80 GiB, 1 year, Section 5.1 workload)"]
    for name, stats in results.items():
        lines.append(
            f"  {name:14s} rejected={stats['rejected']:4d} "
            f"admitted={stats['admitted']:5d} "
            f"max_evicted_imp={stats['max_evicted_importance']:.3f} "
            f"mean_evicted_imp={stats['mean_evicted_importance']:.3f}"
        )
    save_artifact("ablation_victim_order", "\n".join(lines))

"""Extension bench: how predictive is the density feedback signal?

Section 5.1.2 claims "the difference between the storage density and the
object importance gives some indication of the object longevity".  This
bench runs the mixed-application workload (which produces a wide spread
of margins) and correlates each evicted object's arrival-time margin with
the fraction of its requested lifetime it actually achieved.
"""

from benchmarks.conftest import run_once
from repro.analysis.prediction import margin_correlation, prediction_pairs
from repro.core.importance import TwoStepImportance
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.sim.recorder import Recorder
from repro.sim.runner import run_single_store
from repro.sim.workload.mixer import merge_streams
from repro.sim.workload.single_app import RateRamp, SingleAppWorkload
from repro.units import days, gib


def run_prediction_study(horizon_days=300.0, seed=42):
    store = StorageUnit(gib(40), TemporalImportancePolicy(), name="pred")
    streams = []
    for i, importance in enumerate((1.0, 0.8, 0.6, 0.4)):
        workload = SingleAppWorkload(
            lifetime=TwoStepImportance(
                p=importance, t_persist=days(10), t_wane=days(10)
            ),
            ramp=RateRamp(caps_gib_per_hour=(0.25,)),
            seed=seed + i,
            creator=f"class-{importance}",
        )
        streams.append(workload.arrivals(days(horizon_days)))
    result = run_single_store(
        store, merge_streams(streams), days(horizon_days), recorder=Recorder()
    )
    pairs = prediction_pairs(
        result.recorder.evictions, result.recorder.density_samples
    )
    return {
        "pairs": len(pairs),
        "correlation": margin_correlation(pairs),
        "mean_density": result.summary["mean_density"],
    }


def test_ext_prediction(benchmark, save_artifact):
    result = run_once(benchmark, run_prediction_study)

    stats = result["correlation"]
    # A meaningful sample of pressure-driven evictions...
    assert result["pairs"] > 500
    # ...shows a clearly positive margin → satisfaction association, and
    # statistically significant at any conventional level.
    assert stats["spearman_r"] > 0.3
    assert stats["spearman_p"] < 1e-6
    assert stats["pearson_r"] > 0.2

    lines = [
        "Density-margin longevity prediction (40 GiB, 4 importance classes)",
        f"  evictions scored: {result['pairs']}",
        f"  mean density:     {result['mean_density']:.3f}",
        f"  spearman r:       {stats['spearman_r']:.3f} (p={stats['spearman_p']:.2g})",
        f"  pearson r:        {stats['pearson_r']:.3f} (p={stats['pearson_p']:.2g})",
    ]
    save_artifact("ext_prediction", "\n".join(lines))

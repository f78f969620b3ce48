#!/usr/bin/env python3
"""Using storage importance density as annotation feedback (Section 5.1.2).

The paper's answer to "how do I pick an annotation that will actually
persist?" is the storage importance density: probe it before storing, and
the gap between your object's importance and the current admission
threshold indicates your longevity.  This example runs a store into
pressure, then shows three content creators consulting the density before
choosing their annotations.

Run with::

    python examples/density_feedback.py
"""

from repro import StorageUnit, StoredObject, TwoStepImportance, importance_density
from repro.core import TemporalImportancePolicy
from repro.core.density import admission_threshold, byte_importance_snapshot
from repro.analysis.cdf import byte_importance_cdf
from repro.report.asciichart import ascii_cdf
from repro.sim.runner import run_single_store
from repro.sim.workload.single_app import SingleAppWorkload
from repro.units import days, gib


def main() -> None:
    # Drive a 40 GiB disk into steady pressure with the Section 5.1 ramp.
    store = StorageUnit(gib(40), TemporalImportancePolicy())
    workload = SingleAppWorkload(seed=7)
    horizon = days(200)
    run_single_store(store, workload.arrivals(horizon), horizon)
    now = horizon

    density = importance_density(store, now)
    threshold = admission_threshold(store, gib(1), now)
    print(f"after 200 days: density={density:.3f}, "
          f"lowest admissible importance={threshold:.2f}\n")

    print(ascii_cdf(
        byte_importance_cdf(byte_importance_snapshot(store, now)),
        title="Current byte-importance CDF (what the store is holding)",
    ))
    print()

    # Three creators consult the density before annotating 1 GiB objects.
    for name, importance in (("archiver", 1.0), ("reporter", 0.8), ("caching proxy", 0.3)):
        lifetime = TwoStepImportance(p=importance, t_persist=days(10), t_wane=days(10))
        obj = StoredObject(size=gib(1), t_arrival=now, lifetime=lifetime)
        plan = store.peek_admission(obj, now)
        margin = importance - threshold
        if plan.admit:
            outlook = (
                "will stick for a while" if margin > 0.2 else "will be evicted soon"
            )
            print(f"{name:14s} (importance {importance:.1f}): admitted — {outlook} "
                  f"(margin over threshold: {margin:+.2f})")
        else:
            print(f"{name:14s} (importance {importance:.1f}): storage is FULL for "
                  f"this importance (blocked at {plan.blocking_importance:.2f})")


if __name__ == "__main__":
    main()

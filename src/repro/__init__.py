"""repro — reproduction of *Automated Storage Reclamation Using Temporal
Importance Annotations* (Chandra, Gehani & Yu, ICDCS 2007).

The package is organised as:

* :mod:`repro.core` — temporal importance functions, annotated objects,
  preemptive storage units, eviction policies and the storage importance
  density metric (the paper's contribution).
* :mod:`repro.sim` — the discrete-time simulation substrate (minute
  granularity, multi-year horizons) and the paper's workload generators.
* :mod:`repro.besteffs` — the distributed storage substrate: p2p overlay,
  random-walk sampling and the ``x``-sample / ``m``-try placement rule.
* :mod:`repro.analysis` — achieved-lifetime statistics, the Palimpsest
  time-constant estimator, heteroscedasticity diagnostics and CDFs.
* :mod:`repro.report` — text tables, ASCII charts and CSV output.
* :mod:`repro.experiments` — one driver per paper table/figure.
* :mod:`repro.ext` — the Section 6 extension scenarios (sensor stores,
  re-annotation, the Palimpsest refresher).

Quickstart::

    from repro import TwoStepImportance, StoredObject, StorageUnit
    from repro.core import TemporalImportancePolicy
    from repro.units import days, gib

    store = StorageUnit(gib(80), TemporalImportancePolicy())
    video = StoredObject(
        size=gib(1), t_arrival=0.0,
        lifetime=TwoStepImportance(p=1.0, t_persist=days(15), t_wane=days(15)),
    )
    result = store.offer(video, now=0.0)
    assert result.admitted

Each name below resolves on first access (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_getattr

_LAZY = {
    "ConstantImportance": "repro.core.importance",
    "DiracImportance": "repro.core.importance",
    "FixedLifetimeImportance": "repro.core.importance",
    "ImportanceFunction": "repro.core.importance",
    "PiecewiseLinearImportance": "repro.core.importance",
    "StorageUnit": "repro.core.store",
    "StoredObject": "repro.core.obj",
    "TemporalImportancePolicy": "repro.core.policies.temporal",
    "TwoStepImportance": "repro.core.importance",
    "importance_density": "repro.core.density",
}

__version__ = "1.0.0"

__all__ = [*_LAZY, "__version__"]

__getattr__ = lazy_getattr(globals(), _LAZY)

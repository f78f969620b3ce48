"""Core contribution of the paper: temporal importance annotations,
annotated storage objects, preemptive storage units, eviction policies and
the storage-importance-density metric.

The public surface of this package is re-exported here so that typical user
code only needs::

    from repro.core import (
        TwoStepImportance, StoredObject, StorageUnit, TemporalImportancePolicy,
    )

Each name below resolves on first access (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_getattr

_LAZY = {
    "Advice": "repro.core.advisor",
    "Annotation": "repro.core.annotations",
    "AnnotationAdvisor": "repro.core.advisor",
    "AdmissionResult": "repro.core.store",
    "ConstantImportance": "repro.core.importance",
    "DensityAccumulator": "repro.core.index",
    "DiracImportance": "repro.core.importance",
    "EvictionPolicy": "repro.core.policy",
    "EvictionRecord": "repro.core.store",
    "ExponentialWaneImportance": "repro.core.importance",
    "FixedLifetimeImportance": "repro.core.importance",
    "FixedLifetimePolicy": "repro.core.policies.fixed_lifetime",
    "GreedySizePolicy": "repro.core.policies.greedy_size",
    "ImportanceFunction": "repro.core.importance",
    "ImportanceIndex": "repro.core.index",
    "LRUPolicy": "repro.core.policies.lru",
    "ObjectId": "repro.core.obj",
    "PalimpsestPolicy": "repro.core.policies.palimpsest",
    "PiecewiseLinearImportance": "repro.core.importance",
    "StepWaneImportance": "repro.core.importance",
    "StorageUnit": "repro.core.store",
    "StoreStats": "repro.core.store",
    "StoredObject": "repro.core.obj",
    "TemporalImportancePolicy": "repro.core.policies.temporal",
    "TwoStepImportance": "repro.core.importance",
    "byte_importance_snapshot": "repro.core.density",
    "importance_density": "repro.core.density",
    "validate_importance_function": "repro.core.annotations",
}

__all__ = list(_LAZY)

__getattr__ = lazy_getattr(globals(), _LAZY)

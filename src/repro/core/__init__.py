"""Core contribution of the paper: temporal importance annotations,
annotated storage objects, preemptive storage units, eviction policies and
the storage-importance-density metric.

The public surface of this package is re-exported here so that typical user
code only needs::

    from repro.core import (
        TwoStepImportance, StoredObject, StorageUnit, TemporalImportancePolicy,
    )
"""

from repro.core.importance import (
    ConstantImportance,
    DiracImportance,
    ExponentialWaneImportance,
    FixedLifetimeImportance,
    ImportanceFunction,
    PiecewiseLinearImportance,
    StepWaneImportance,
    TwoStepImportance,
)
from repro.core.advisor import Advice, AnnotationAdvisor
from repro.core.obj import ObjectId, StoredObject
from repro.core.annotations import Annotation, validate_importance_function
from repro.core.store import AdmissionResult, EvictionRecord, StorageUnit, StoreStats
from repro.core.density import byte_importance_snapshot, importance_density
from repro.core.index import DensityAccumulator, ImportanceIndex
from repro.core.policy import EvictionPolicy
from repro.core.policies import (
    FixedLifetimePolicy,
    GreedySizePolicy,
    LRUPolicy,
    PalimpsestPolicy,
    TemporalImportancePolicy,
)

__all__ = [
    "Advice",
    "Annotation",
    "AnnotationAdvisor",
    "AdmissionResult",
    "ConstantImportance",
    "DensityAccumulator",
    "DiracImportance",
    "EvictionPolicy",
    "EvictionRecord",
    "ExponentialWaneImportance",
    "FixedLifetimeImportance",
    "FixedLifetimePolicy",
    "GreedySizePolicy",
    "ImportanceFunction",
    "ImportanceIndex",
    "LRUPolicy",
    "ObjectId",
    "PalimpsestPolicy",
    "PiecewiseLinearImportance",
    "StepWaneImportance",
    "StorageUnit",
    "StoreStats",
    "StoredObject",
    "TemporalImportancePolicy",
    "TwoStepImportance",
    "byte_importance_snapshot",
    "importance_density",
    "validate_importance_function",
]

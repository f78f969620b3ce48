"""Eviction policies.

The paper evaluates three (Section 5.1):

* :class:`TemporalImportancePolicy` — the contribution: preemption by
  current temporal importance.
* :class:`FixedLifetimePolicy` — lifetime without a temporal component
  (``L(t) = 1``, fixed ``t_expire``): only fully expired residents may be
  displaced, so the store really is full once live bytes fill it.
* :class:`PalimpsestPolicy` — Palimpsest-style FIFO: all data ephemeral,
  the oldest objects are silently overwritten, storage is never "full".

The remaining classes are baselines/ablations used by the extended
benchmarks: :class:`LRUPolicy` and the size-weighted
:class:`GreedySizePolicy` the paper explicitly declines to use in its
placement rule.
"""

from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.policies.fixed_lifetime import FixedLifetimePolicy
from repro.core.policies.palimpsest import PalimpsestPolicy
from repro.core.policies.lru import LRUPolicy
from repro.core.policies.greedy_size import GreedySizePolicy

__all__ = [
    "FixedLifetimePolicy",
    "GreedySizePolicy",
    "LRUPolicy",
    "PalimpsestPolicy",
    "TemporalImportancePolicy",
]

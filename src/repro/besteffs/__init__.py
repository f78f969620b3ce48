"""*Besteffs* — the paper's distributed storage substrate (Section 4.1).

Besteffs is an object-level, fully distributed store over unused desktop
disks and storage bricks: objects are read-only and write-once with
versioned updates, nothing is replicated, and there are no centralised
components.  This package implements the pieces the evaluation exercises:

* :mod:`repro.besteffs.node` — a storage brick: a
  :class:`~repro.core.store.StorageUnit` with a node identity and the
  placement probe.
* :mod:`repro.besteffs.overlay` — the p2p overlay graph.
* :mod:`repro.besteffs.walks` — random-walk node sampling over the overlay
  ("random walks on our p2p overlay help us choose a good set of storage
  units").
* :mod:`repro.besteffs.placement` — the Section 5.3 placement rule:
  sample ``x`` units, probe each for the *highest importance object that
  will be preempted*, retry up to ``m`` times, store on the unit with the
  lowest such value.
* :mod:`repro.besteffs.cluster` — the cluster facade tying it together.
* :mod:`repro.besteffs.versioning` — write-once versioned object names.
"""

from repro.besteffs.node import BesteffsNode
from repro.besteffs.overlay import Overlay
from repro.besteffs.walks import random_walk, sample_nodes
from repro.besteffs.placement import PlacementConfig, PlacementDecision, choose_unit
from repro.besteffs.cluster import BesteffsCluster, ClusterStats
from repro.besteffs.versioning import VersionedNamespace, VersionRecord
from repro.besteffs.membership import ChurnEvent, ChurnManager, ChurnModel
from repro.besteffs.gossip import GossipAverager, sampled_density
from repro.besteffs.auth import AuthError, Capability, CapabilityRealm
from repro.besteffs.fairness import (
    FairnessError,
    FairShareLedger,
    annotation_cost,
    importance_integral,
)
from repro.besteffs.gateway import BesteffsGateway

__all__ = [
    "AuthError",
    "BesteffsCluster",
    "BesteffsGateway",
    "BesteffsNode",
    "Capability",
    "CapabilityRealm",
    "ChurnEvent",
    "ChurnManager",
    "ChurnModel",
    "ClusterStats",
    "FairShareLedger",
    "FairnessError",
    "GossipAverager",
    "Overlay",
    "PlacementConfig",
    "PlacementDecision",
    "VersionRecord",
    "VersionedNamespace",
    "annotation_cost",
    "choose_unit",
    "importance_integral",
    "random_walk",
    "sample_nodes",
    "sampled_density",
]

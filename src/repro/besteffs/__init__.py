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

Each name below resolves on first access (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_getattr

_LAZY = {
    "AuthError": "repro.besteffs.auth",
    "BesteffsCluster": "repro.besteffs.cluster",
    "BesteffsGateway": "repro.besteffs.gateway",
    "BesteffsNode": "repro.besteffs.node",
    "Capability": "repro.besteffs.auth",
    "CapabilityRealm": "repro.besteffs.auth",
    "ChurnEvent": "repro.besteffs.membership",
    "ChurnManager": "repro.besteffs.membership",
    "ChurnModel": "repro.besteffs.membership",
    "ClusterStats": "repro.besteffs.cluster",
    "FairShareLedger": "repro.besteffs.fairness",
    "FairnessError": "repro.besteffs.fairness",
    "GossipAverager": "repro.besteffs.gossip",
    "Overlay": "repro.besteffs.overlay",
    "PlacementConfig": "repro.besteffs.placement",
    "PlacementDecision": "repro.besteffs.placement",
    "annotation_cost": "repro.besteffs.fairness",
    "choose_unit": "repro.besteffs.placement",
    "importance_integral": "repro.besteffs.fairness",
    "random_walk": "repro.besteffs.walks",
    "sample_nodes": "repro.besteffs.walks",
    "sampled_density": "repro.besteffs.gossip",
}

__all__ = list(_LAZY)

__getattr__ = lazy_getattr(globals(), _LAZY)

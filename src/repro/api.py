"""Curated public facade of the reproduction package.

Everything a library user needs sits behind one import::

    from repro.api import RunSpec, StorageUnit, TwoStepImportance, run_specs

The facade is intentionally small and explicit: each name here is a
stable entry point whose signature we keep compatible across PRs, while
the submodules underneath remain free to reorganise.  Three layers are
exposed:

* **core model** — annotated objects, importance functions, storage
  units and eviction policies (:mod:`repro.core`);
* **simulation** — the engine/recorder/runner trio for driving a
  scenario directly (:mod:`repro.sim`), plus the Besteffs cluster for
  distributed (Section 5.3) runs;
* **run-spec API** — :class:`RunSpec` and the parallel sweep executor
  (:mod:`repro.sim.parallel`), the single way to describe and execute a
  named experiment; ``run_experiment(RunSpec("fig6"))`` returns the same
  result object the experiment module's ``execute`` does;
* **serving** — the :mod:`repro.serve` request/response protocol
  (:class:`StoreRequest`/:class:`StoreResponse`), the synchronous
  :func:`serve` helper over a gateway, and the
  :class:`LoadGenSpec`/:func:`run_loadgen` load-generator pair (see
  ``docs/serving.md``).

Each name resolves on first access (:mod:`repro._lazy`), so a run loads only its layers.
"""

from __future__ import annotations

from repro._lazy import lazy_getattr

_LAZY = {
    # core model
    "Annotation": "repro.core",
    "EvictionPolicy": "repro.core",
    "ImportanceFunction": "repro.core",
    "PalimpsestPolicy": "repro.core",
    "StorageUnit": "repro.core",
    "StoreStats": "repro.core",
    "StoredObject": "repro.core",
    "TemporalImportancePolicy": "repro.core",
    "TwoStepImportance": "repro.core",
    "importance_density": "repro.core",
    # simulation
    "BesteffsCluster": "repro.besteffs",
    "BesteffsNode": "repro.besteffs",
    "ClusterStats": "repro.besteffs",
    "Recorder": "repro.sim",
    "ScenarioResult": "repro.sim",
    "SimulationEngine": "repro.sim",
    "run_single_store": "repro.sim",
    # run-spec API
    "ObsOptions": "repro.sim.parallel",
    "RunError": "repro.sim.parallel",
    "RunOutcome": "repro.sim.parallel",
    "RunSpec": "repro.sim.parallel",
    "execute_spec": "repro.sim.parallel",
    "expand_sweep": "repro.sim.parallel",
    "run_experiment": "repro.experiments.registry",
    "run_specs": "repro.sim.parallel",
    "seed_for": "repro.sim.parallel",
    # decision provenance + SLO alerts
    "AlertEngine": "repro.obs.alerts",
    "AlertRule": "repro.obs.alerts",
    "AuditLedger": "repro.obs.audit",
    "AuditRecord": "repro.obs.audit",
    "explain_object": "repro.report.explain",
    "load_rules": "repro.obs.alerts",
    "load_run_ledgers": "repro.report.explain",
    # distributed traces + critical path / collapsed stacks
    "CriticalPathResult": "repro.report.flamegraph",
    "SpanRecord": "repro.obs.tracing",
    "TraceArchive": "repro.obs.traceexport",
    "collapsed_stacks": "repro.report.flamegraph",
    "critical_path": "repro.report.flamegraph",
    "render_critical_path": "repro.report.flamegraph",
    "trace_id_for": "repro.obs.traceexport",
    # serving (repro.serve)
    "BesteffsGateway": "repro.besteffs",
    "CapabilityRealm": "repro.besteffs",
    "FairShareLedger": "repro.besteffs",
    "GatewayService": "repro.serve",
    "LoadGenReport": "repro.serve",
    "LoadGenSpec": "repro.serve",
    "RouterConfig": "repro.serve",
    "ServeConfig": "repro.serve",
    "StoreRequest": "repro.serve",
    "StoreResponse": "repro.serve",
    "StoreStatus": "repro.serve",
    "home_shard": "repro.serve",
    "plan_routes": "repro.serve",
    "run_loadgen": "repro.serve",
    "run_sharded": "repro.serve",
    "serve": "repro.serve",
}

__all__ = list(_LAZY)

__getattr__ = lazy_getattr(globals(), _LAZY)

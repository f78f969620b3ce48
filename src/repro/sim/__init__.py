"""Discrete-time simulation substrate (paper Section 4.3).

The paper analyses system behaviour "over a large time frame (five and ten
years ...) on a minute granularity".  This package provides:

* :mod:`repro.sim.engine` — the dispatch loop: one time-ordered arrival
  stream merged with fixed-cadence ticks, at one-minute granularity.
* :mod:`repro.sim.recorder` — metric collection (arrivals, evictions,
  rejections, density time-series).
* :mod:`repro.sim.probes` — periodic measurement hooks.
* :mod:`repro.sim.runner` — scenario orchestration helpers.
* :mod:`repro.sim.workload` — the paper's three workload families plus the
  Figure 8 popularity-trace synthesiser.
* :mod:`repro.sim.parallel` — picklable :class:`RunSpec` descriptions and
  the multi-process sweep executor.

Each name below resolves on first access (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_getattr

_LAZY = {
    "ArrivalRecord": "repro.core.store",
    "ObsOptions": "repro.sim.parallel",
    "Recorder": "repro.sim.recorder",
    "RunError": "repro.sim.parallel",
    "RunOutcome": "repro.sim.parallel",
    "RunSpec": "repro.sim.parallel",
    "ScenarioResult": "repro.sim.runner",
    "SimulationEngine": "repro.sim.engine",
    "execute_spec": "repro.sim.parallel",
    "expand_sweep": "repro.sim.parallel",
    "run_single_store": "repro.sim.runner",
    "run_specs": "repro.sim.parallel",
    "seed_for": "repro.sim.parallel",
}

__all__ = list(_LAZY)

__getattr__ = lazy_getattr(globals(), _LAZY)

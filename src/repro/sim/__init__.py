"""Discrete-time simulation substrate (paper Section 4.3).

The paper analyses system behaviour "over a large time frame (five and ten
years ...) on a minute granularity".  This package provides:

* :mod:`repro.sim.clock` / :mod:`repro.sim.events` /
  :mod:`repro.sim.engine` — a deterministic event-driven simulator whose
  native tick is one minute.
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
    "Event": "repro.sim.events",
    "ObsOptions": "repro.sim.parallel",
    "Recorder": "repro.sim.recorder",
    "RunError": "repro.sim.parallel",
    "RunOutcome": "repro.sim.parallel",
    "RunSpec": "repro.sim.parallel",
    "ScenarioResult": "repro.sim.runner",
    "SimClock": "repro.sim.clock",
    "SimulationEngine": "repro.sim.engine",
    "execute_spec": "repro.sim.parallel",
    "expand_sweep": "repro.sim.parallel",
    "run_single_store": "repro.sim.runner",
    "run_specs": "repro.sim.parallel",
    "seed_for": "repro.sim.parallel",
}

__all__ = list(_LAZY)

__getattr__ = lazy_getattr(globals(), _LAZY)

"""Shared scenario builders for the experiment drivers.

Two canonical setups cover Sections 5.1 and 5.2:

* **single-app** — the Section 5.1 workload (rate-ramp arrivals, a common
  lifetime annotation) against one disk under one of the three evaluated
  policies;
* **lecture** — the Section 5.2 single-instructor capture (university +
  student objects on the academic calendar) against one disk.

Both default to the paper's disk sizes (80/120 GB) and run horizons chosen
so benches finish in seconds; drivers accept ``horizon_days`` overrides for
paper-scale (5/10-year) runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.importance import DiracImportance, FixedLifetimeImportance
from repro.core.policies import (
    FixedLifetimePolicy,
    PalimpsestPolicy,
    TemporalImportancePolicy,
)
from repro.core.policy import EvictionPolicy
from repro.core.store import StorageUnit
from repro.errors import ReproError
from repro.sim.recorder import Recorder
from repro.sim.runner import ScenarioResult, run_single_store
from repro.sim.workload.lecture import LectureCaptureWorkload, LectureConfig
from repro.sim.workload.single_app import SingleAppWorkload, paper_two_step_lifetime
from repro.units import days, gib

__all__ = [
    "POLICY_TEMPORAL",
    "POLICY_NO_IMPORTANCE",
    "POLICY_PALIMPSEST",
    "SingleAppSetup",
    "LectureSetup",
    "build_single_app_scenario",
    "run_single_app_scenario",
    "run_lecture_scenario",
]

POLICY_TEMPORAL = "temporal-importance"
POLICY_NO_IMPORTANCE = "no-importance"
POLICY_PALIMPSEST = "palimpsest"

#: The three Section 5.1 policies, by report label.
ALL_POLICIES = (POLICY_TEMPORAL, POLICY_NO_IMPORTANCE, POLICY_PALIMPSEST)


@dataclass(frozen=True)
class SingleAppSetup:
    """Configuration of one Section 5.1 run."""

    capacity_gib: int = 80
    horizon_days: float = 365.0
    seed: int = 42
    policy: str = POLICY_TEMPORAL
    density_interval_days: float = 1.0


@dataclass(frozen=True)
class LectureSetup:
    """Configuration of one Section 5.2 run."""

    capacity_gib: int = 80
    horizon_days: float = 5 * 365.0
    seed: int = 42
    policy: str = POLICY_TEMPORAL
    density_interval_days: float = 1.0
    lecture: LectureConfig = field(default_factory=LectureConfig)


def _make_policy(policy_name: str) -> EvictionPolicy:
    if policy_name == POLICY_TEMPORAL:
        return TemporalImportancePolicy()
    if policy_name == POLICY_NO_IMPORTANCE:
        return FixedLifetimePolicy()
    if policy_name == POLICY_PALIMPSEST:
        return PalimpsestPolicy()
    raise ReproError(f"unknown policy {policy_name!r}; pick one of {ALL_POLICIES}")


def _single_app_lifetime(policy_name: str):
    """The Section 5.1 annotation matched to each policy.

    * temporal — the two-step function (15 d persist, 15 d wane);
    * no-importance — ``L(t) = 1``, ``t_expire = 30`` days;
    * palimpsest — cache degradation (``t_expire = 0``).
    """
    if policy_name == POLICY_TEMPORAL:
        return paper_two_step_lifetime()
    if policy_name == POLICY_NO_IMPORTANCE:
        return FixedLifetimeImportance(p=1.0, expire_after=days(30))
    if policy_name == POLICY_PALIMPSEST:
        return DiracImportance()
    raise ReproError(f"unknown policy {policy_name!r}; pick one of {ALL_POLICIES}")


def build_single_app_scenario(
    setup: SingleAppSetup,
) -> tuple[StorageUnit, SingleAppWorkload]:
    """Construct (but do not run) the Section 5.1 store and workload."""
    store = StorageUnit(
        gib(setup.capacity_gib),
        _make_policy(setup.policy),
        name=f"disk-{setup.capacity_gib}g-{setup.policy}",
    )
    workload = SingleAppWorkload(
        lifetime=_single_app_lifetime(setup.policy), seed=setup.seed
    )
    return store, workload


def run_single_app_scenario(setup: SingleAppSetup) -> ScenarioResult:
    """Run one Section 5.1 scenario end to end."""
    store, workload = build_single_app_scenario(setup)
    horizon = days(setup.horizon_days)
    return run_single_store(
        store,
        workload.arrivals(horizon),
        horizon,
        recorder=Recorder(),
        density_interval_minutes=days(setup.density_interval_days),
    )


def run_lecture_scenario(setup: LectureSetup) -> ScenarioResult:
    """Run one Section 5.2 scenario end to end.

    The workload always carries the Table 1 two-step annotations (that is
    what the lecture application requests); the *policy* governs whether
    the store honours them (temporal), guarantees-then-rejects
    (no-importance) or ignores them entirely (Palimpsest — whose Figure 10
    "projected importance" uses the carried annotation).
    """
    store = StorageUnit(
        gib(setup.capacity_gib),
        _make_policy(setup.policy),
        name=f"lecture-{setup.capacity_gib}g-{setup.policy}",
    )
    workload = LectureCaptureWorkload(config=setup.lecture, seed=setup.seed)
    horizon = days(setup.horizon_days)
    return run_single_store(
        store,
        workload.arrivals(horizon),
        horizon,
        recorder=Recorder(),
        density_interval_minutes=days(setup.density_interval_days),
    )

"""Figure 7 — CDF of byte importance at a density ≈ 0.8369 snapshot.

The paper randomly snapshots the store when the instantaneous density was
0.8369 and plots the cumulative distribution of stored-byte importance:
57 % of bytes sit at importance one (non-preemptible) and no stored byte
falls below ~0.25 — the current admission cut-off.  We arm a
:class:`~repro.sim.probes.SnapshotTrigger` on a density band around the
published value and report the same statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cdf import (
    byte_importance_cdf,
    fraction_at_or_above,
    minimum_storable_importance,
)
from repro.experiments.common import POLICY_TEMPORAL, SingleAppSetup, build_single_app_scenario
from repro.report.asciichart import ascii_cdf
from repro.sim.engine import SimulationEngine
from repro.sim.probes import SnapshotTrigger, density_probe
from repro.sim.recorder import Recorder
from repro.sim.runner import feed_arrivals
from repro.units import days, to_days
from repro.sim.parallel import RunSpec

__all__ = ["Fig7Result", "execute", "render", "PAPER_DENSITY", "CSV_HEADERS", "csv_rows"]

#: The density at which the paper took its snapshot.
PAPER_DENSITY = 0.8369


@dataclass(frozen=True)
class Fig7Result:
    """Snapshot CDF and headline statistics."""

    snapshot: tuple[tuple[float, int], ...]
    cdf: tuple[tuple[float, float], ...]
    density_at_snapshot: float
    snapshot_day: float
    fraction_importance_one: float
    min_storable_importance: float


def _run(
    *,
    capacity_gib: int = 80,
    horizon_days: float = 365.0,
    seed: int = 42,
    band: tuple[float, float] = (PAPER_DENSITY - 0.02, PAPER_DENSITY + 0.02),
) -> Fig7Result:
    """Run until the density enters the paper's band and snapshot the store."""
    setup = SingleAppSetup(
        capacity_gib=capacity_gib,
        horizon_days=horizon_days,
        seed=seed,
        policy=POLICY_TEMPORAL,
    )
    store, workload = build_single_app_scenario(setup)
    engine = SimulationEngine()
    recorder = Recorder()
    recorder.attach(store)
    density_probe(engine, recorder, interval_minutes=days(1))
    trigger = SnapshotTrigger(store, low=band[0], high=band[1]).arm(
        engine, interval_minutes=60.0
    )
    horizon = days(horizon_days)
    feed_arrivals(engine, store, workload.arrivals(horizon), recorder, horizon_minutes=horizon)
    engine.run(horizon)
    if trigger.snapshot is None:
        raise RuntimeError(
            f"density never entered [{band[0]:.3f}, {band[1]:.3f}] within "
            f"{horizon_days} days; widen the band or extend the horizon"
        )
    snapshot = tuple(trigger.snapshot)
    live = tuple((imp, size) for imp, size in snapshot if imp > 0.0)
    return Fig7Result(
        snapshot=snapshot,
        cdf=tuple(byte_importance_cdf(snapshot)),
        density_at_snapshot=trigger.triggered_density or 0.0,
        snapshot_day=to_days(trigger.triggered_at or 0.0),
        fraction_importance_one=fraction_at_or_above(snapshot, 1.0),
        min_storable_importance=minimum_storable_importance(live),
    )


def render(result: Fig7Result) -> str:
    """Printable reproduction of Figure 7."""
    chart = ascii_cdf(
        result.cdf,
        title=(
            f"Figure 7: byte-importance CDF at density "
            f"{result.density_at_snapshot:.4f} (day {result.snapshot_day:.0f})"
        ),
    )
    lines = [
        chart,
        "",
        f"Bytes at importance 1.0 (non-preemptible): "
        f"{100 * result.fraction_importance_one:.1f}%  (paper: 57%)",
        f"Lowest stored importance (admission cut-off): "
        f"{result.min_storable_importance:.3f}  (paper: ~0.25)",
    ]
    return "\n".join(lines)


CSV_HEADERS = ("importance", "cumulative_fraction")


def csv_rows(result: Fig7Result) -> list[tuple]:
    """The importance CDF at the snapshot, one row per step."""
    return list(result.cdf)


def execute(spec: RunSpec) -> Fig7Result:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs())

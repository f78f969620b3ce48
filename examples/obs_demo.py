#!/usr/bin/env python3
"""Observability demo: metrics, spans, time series and logs on a
fig6-style single-store run.

Run with::

    python examples/obs_demo.py

Equivalent CLI::

    repro-sim run fig6 --horizon-days 60 --metrics-out m.json --trace
"""

import json
import tempfile
from pathlib import Path

from repro import obs
from repro.api import RunSpec, run_experiment
from repro.report import metrics_summary


def main() -> None:
    # Switch telemetry on: a fresh registry/tracer start collecting, the
    # logger echoes run lifecycle events into a plain list, and a
    # time-series collector scrapes the registry daily (sim time).
    obs.reset()
    obs.enable(timeseries=obs.TimeSeriesCollector(interval_minutes=1440.0))
    log_records: list[dict] = []
    obs.configure_logging("info", log_records)

    # A 60-day fig6 run on the 80 GiB disk: it fills around day 40-50,
    # so the tail of the horizon exercises rejection, preemption, and
    # expiry sweeps.
    run_experiment(
        RunSpec("fig6", params={"capacities_gib": (80,)}, seed=7, horizon_days=60.0)
    )
    registry = obs.STATE.registry

    print(
        metrics_summary(
            registry,
            title="Metrics after fig6 (60 days)",
            timeseries=obs.STATE.timeseries,
        )
    )
    print()
    print(obs.STATE.tracer.render())
    print()

    # Individual instruments are queryable directly.
    events = registry.get("engine_events_total")
    admissions = registry.get("store_admissions_total")
    scans = registry.get("store_reclaim_scan_length")
    unit = "disk-80g-temporal-importance"
    print(f"arrivals dispatched:  {events.value(label='arrival'):.0f}")
    print(f"offers admitted:      {admissions.value(unit=unit, outcome='admitted'):.0f}")
    print(f"offers rejected:      {admissions.value(unit=unit, outcome='rejected'):.0f}")
    snap = scans.snapshot(unit=unit)
    print(f"reclaim scans:        {snap['count']} (mean length {snap['mean']:.1f})")
    print()

    print("lifecycle log records:")
    for record in log_records:
        print(f"  {json.dumps(record)}")
    print()

    # The daily scrapes give every metric a bounded history.
    collector = obs.STATE.timeseries
    density_label = "store_importance_density{unit=disk-80g-temporal-importance}"
    print(f"time series collected: {len(collector)} "
          f"({collector.scrape_count} scrapes)")
    density = collector.values(density_label)
    print(f"density trajectory:   {density[0]:.3f} -> {max(density):.3f} "
          f"(peak) -> {density[-1]:.3f} over {len(density)} samples")
    print()

    # The registry exports to a JSON-friendly dict or Prometheus text; the
    # summary printed above, with its trend column, is the run's report.
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "metrics.json"
        out.write_text(json.dumps(registry.to_dict(), indent=2))
        print(f"JSON export: {len(out.read_text())} bytes, "
              f"{len(registry)} metrics")
    prom = registry.to_prometheus_text()
    print(f"Prometheus export: {prom.count(chr(10))} lines")
    print()

    # Back to the free, disabled state.
    obs.reset()


if __name__ == "__main__":
    main()

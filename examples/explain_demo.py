#!/usr/bin/env python3
"""Decision-provenance demo: audit a run, then explain why objects died.

An audited run records every admit/reject/evict/expire decision — with
the exact importance-vs-threshold comparison the store made — into an
:class:`repro.obs.audit.AuditLedger`.  This script drives a 120-day
fig6-style run, writes the ledger to JSONL, evaluates a couple of SLO
alert rules against the run's metrics, and reconstructs the timeline of
the first evicted object.

Run with::

    python examples/explain_demo.py

Equivalent CLI::

    repro-sim run fig6 --horizon-days 120 --audit-out run/audit.jsonl \
        --alerts rules.txt --metrics-out run/m.json
    repro-sim explain run/audit.jsonl            # list eventful objects
    repro-sim explain run/audit.jsonl obj-000000 # one object's story
    repro-sim alerts run/ --check                # the CI gate
"""

import tempfile
from pathlib import Path

from repro import obs
from repro.api import AlertEngine, AuditLedger, RunSpec, run_experiment
from repro.report.explain import explain_object, list_objects, load_run_ledgers
from repro.report.metrics import alerts_verdict_line


def main() -> None:
    # Audit everything (sample=1.0) and watch two SLO rules while we run.
    obs.reset()
    obs.enable(
        audit=AuditLedger(sample=1.0),
        alerts=AlertEngine.from_mapping(
            {
                "occupancy_bounded": "occupancy_max <= 1.0",
                "some_reclamation": "evictions_total >= 1",
            }
        ),
    )

    run_experiment(
        RunSpec("fig6", params={"capacities_gib": (80,)}, seed=7, horizon_days=120.0)
    )
    ledger = obs.STATE.audit
    engine = obs.STATE.alerts
    engine.evaluate(obs.STATE.registry)

    # The ledger round-trips through JSONL — the CLI's --audit-out file.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fig6-audit.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            written = ledger.write_jsonl(fh)
        print(f"ledger: {written} decision records -> {path.name}")
        ledgers = load_run_ledgers(str(path))

    print()
    print(list_objects(ledgers, limit=8))
    print()

    (reloaded,) = ledgers.values()
    evicted = next(r.object_id for r in reloaded if r.action == "evict")
    print(explain_object(reloaded, evicted))
    print()
    print(alerts_verdict_line(engine))

    obs.reset()


if __name__ == "__main__":
    main()

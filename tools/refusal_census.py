#!/usr/bin/env python3
"""Refusal census: which placement refusals the cluster floor decided without
a walk, why the rest walked, and which probes the cached unit floor answered.

    python3 tools/refusal_census.py [--seed 42 --seed 7] [--workload sim_cluster ...]

For each cluster workload (default ``sim_cluster`` and ``serve_pressure``;
``serve_flash`` on request) and seed it builds the benchmark's own spec
(``bench/workloads.py``) at the horizon one repetition of the contract run
simulates (``days_per_second`` x 15 s / ``bench.measure.REPS``: 322.5 days
for ``sim_cluster``, 360 for ``serve_pressure``), runs it once in this
process and prints one Markdown table, one column per run.  Five
functions are wrapped while it runs:

* ``BesteffsCluster.offer`` counts offers and refusals, and splits the
  refusals into those the cluster floor made before any walk
  (``rounds_used == 0``) and those made after one.  After every refusal it
  probes every node of the cluster at the same instant (the full sweep).
  A floor refusal with an admissible unit anywhere would be a floor bug,
  so that row must read 0.  A walked refusal is put down to its first
  cause of: an admissible unit somewhere (the walk missed it), a member
  whose policy the floor does not mirror, a unit the sweep decided with
  the merge (its cached floor did not answer), or none of these.  Probes
  are scores and leave every decision alone, so the run's own offers are
  unchanged; the sweep's probes are not counted below.
  It also counts the offers that walked (``rounds_used > 0``) and the
  direct stores decided by the first probe of the first round.
* ``repro.besteffs.walks._walk`` counts the walks run (the kernel of every
  walk on a plain ``random.Random``; the sweep walks none).
* ``TemporalImportancePolicy.probe`` counts the placement probes.
* ``ImportanceIndex.preempted_floor`` and ``GroupedResidents.merge_floor``:
  a probe the expired residents do not cover that returns an answer
  without reaching the merge was answered by the cached floor.  The rest
  of the probes were decided before either (too large, free space,
  expired bytes cover the need) or planned in full (the merge ran dry).

Stdlib only; ``make refusal-census`` runs it at seeds 42 and 7.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO)]

from bench.measure import REPS  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402
from repro.besteffs import walks  # noqa: E402
from repro.besteffs.cluster import BesteffsCluster  # noqa: E402
from repro.core.policies.temporal import TemporalImportancePolicy  # noqa: E402
from repro.core.index import ImportanceIndex  # noqa: E402
from repro.core.victims import GroupedResidents  # noqa: E402

#: Seconds of the contract run (``BENCHMARK.json`` ``run_seconds``).
CONTRACT_SECONDS = 15.0

ROWS = (
    ("offers", "offers"),
    ("refusals", "refusals"),
    ("unwalked", "… refused by the cluster floor (no walk)"),
    ("unwalked_admissible", "… … with an admissible unit somewhere (must be 0)"),
    ("walked", "… refused after a walk"),
    ("admissible", "… … with an admissible unit somewhere"),
    ("unmirrored", "… … a member's policy the floor does not mirror"),
    ("merge_decided", "… … merge-decided on some unit"),
    ("walked_other", "… … none of these"),
    ("walks", "walks run"),
    ("walks_per_walked_offer", "… per walked offer"),
    ("direct_first_share", "share of offers direct at the first probe"),
    ("probes", "placement probes"),
    ("floor", "… answered by the cached floor"),
    ("merge", "… folded by the merge"),
    ("other", "… decided before either, or planned in full"),
)


def census(workload: str, seed: int) -> Counter:
    """Run one benchmark workload with the counters wrapped around it."""
    counts: Counter = Counter()
    sweeping = False
    sweep_merges = 0
    offer = BesteffsCluster.offer
    probe = TemporalImportancePolicy.probe
    floor = ImportanceIndex.preempted_floor
    merge = GroupedResidents.merge_floor
    walk = walks._walk

    def counted_offer(cluster, obj, now, **kwargs):
        nonlocal sweeping, sweep_merges
        decision, result = offer(cluster, obj, now, **kwargs)
        counts["offers"] += 1
        counts["walked_offers"] += decision.rounds_used > 0
        counts["direct_first"] += decision.reason == "direct" and decision.nodes_probed == 1
        if decision.placed:
            return decision, result
        counts["refusals"] += 1
        sweeping, sweep_merges = True, 0
        try:
            admissible = any(node.probe(obj, now)[0] for node in cluster.nodes.values())
        finally:
            sweeping = False
        if decision.rounds_used == 0:
            counts["unwalked"] += 1
            counts["unwalked_admissible"] += admissible
            return decision, result
        counts["walked"] += 1
        if admissible:
            counts["admissible"] += 1
        elif any(
            type(node.store.policy) is not TemporalImportancePolicy
            for node in cluster.nodes.values()
        ):
            counts["unmirrored"] += 1
        elif sweep_merges:
            counts["merge_decided"] += 1
        else:
            counts["walked_other"] += 1
        return decision, result

    def counted_walk(*args):
        counts["walks"] += 1
        return walk(*args)

    def counted_probe(policy, store, obj, now, incoming):
        if not sweeping:
            counts["probes"] += 1
        return probe(policy, store, obj, now, incoming)

    def counted_floor(index, now, needed, incoming, strict):
        merges = counts["merge"]
        scored = floor(index, now, needed, incoming, strict)
        if (
            not sweeping and scored is not None and needed > index.expired_bytes
            and counts["merge"] == merges
        ):
            counts["floor"] += 1
        return scored

    def counted_merge(groups, *args):
        nonlocal sweep_merges
        if sweeping:
            sweep_merges += 1
        else:
            counts["merge"] += 1
        return merge(groups, *args)

    spec = WORKLOADS[workload]
    horizon_days = spec.days_per_second * CONTRACT_SECONDS / REPS
    run = spec.build(seed, horizon_days)
    BesteffsCluster.offer = counted_offer
    TemporalImportancePolicy.probe = counted_probe
    ImportanceIndex.preempted_floor = counted_floor
    GroupedResidents.merge_floor = counted_merge
    walks._walk = counted_walk
    try:
        run()
    finally:
        BesteffsCluster.offer = offer
        TemporalImportancePolicy.probe = probe
        ImportanceIndex.preempted_floor = floor
        GroupedResidents.merge_floor = merge
        walks._walk = walk
    counts["other"] = counts["probes"] - counts["floor"] - counts["merge"]
    counts["walks_per_walked_offer"] = counts["walks"] / max(counts["walked_offers"], 1)
    counts["direct_first_share"] = counts["direct_first"] / max(counts["offers"], 1)
    counts["horizon_days"] = horizon_days
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=("sim_cluster", "serve_pressure", "serve_flash")
    )
    parser.add_argument("--seed", action="append", type=int)
    args = parser.parse_args(argv)
    columns = [
        (workload, seed, census(workload, seed))
        for workload in args.workload or ("sim_cluster", "serve_pressure")
        for seed in args.seed or (42,)
    ]
    print("| | " + " | ".join(
        f"`{w}` seed {s} ({c['horizon_days']:g} d)" for w, s, c in columns) + " |")
    print("|---|" + "---|" * len(columns))
    for key, label in ROWS:
        cells = (f"{c[key]:,.3f}" if isinstance(c[key], float) else f"{c[key]:,}"
                 for _w, _s, c in columns)
        print(f"| {label} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Parallel parameter sweep through the run-spec API.

A ``RunSpec`` is the single, picklable description of one experiment
run; ``expand_sweep`` turns a parameter grid plus seed replicas into a
list of specs and ``run_specs`` executes them — inline for ``jobs=1``,
in worker processes otherwise, with identical artifacts either way.

Run with::

    python examples/parallel_sweep.py
"""

from repro.api import expand_sweep, run_specs


def main() -> None:
    # Three seed replicas of fig6's density run at two capacity points,
    # over a short horizon so the demo finishes in seconds.
    specs = expand_sweep(
        "fig6",
        grid={"capacities_gib": [(40,), (80,)]},
        seeds=3,
        horizon_days=30.0,
    )
    print(f"{len(specs)} specs: {', '.join(s.slug() for s in specs)}\n")

    outcomes = run_specs(specs, jobs=2, on_outcome=lambda o: print(
        f"  {o.spec.slug():40s} ok={o.ok} wall={o.wall_seconds:.2f}s"
    ))

    # Per-replica plateau densities, straight from the typed results.
    print("\nplateau density by spec:")
    for outcome in outcomes:
        if not outcome.ok:
            print(f"  {outcome.spec.slug()}: FAILED ({outcome.error.render()})")
            continue
        # Outcomes carry fig6's typed result across the process boundary;
        # the plateau is the tail of the (t, density) series.
        (series,) = outcome.result.series.values()
        tail = [density for _t, density in series[-10:]]
        print(f"  {outcome.spec.slug():40s} "
              f"mean(last 10 samples) = {sum(tail) / len(tail):.3f}")


if __name__ == "__main__":
    main()

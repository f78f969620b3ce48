#!/usr/bin/env python3
"""Serve the store: the async gateway front-end under replayed traffic.

Two quick serving experiments (see docs/serving.md):

1. a **closed-loop** run — four client sessions replay the scaled
   university capture workload against a four-node Besteffs cluster,
   each awaiting its response before the next request;
2. an **open-loop** run against a deliberately tiny queue — requests are
   submitted at trace pace, so the bounded queue sheds with
   ``SHED_BACKPRESSURE`` + retry-after once the admission worker falls
   behind.

Both runs are fully seeded: the printed ledger sha256 is identical on
every invocation (wall-clock throughput/latency figures, of course, are
not).

Run with::

    python examples/serve_loadgen.py
"""

from repro.api import LoadGenSpec, run_loadgen
from repro.core.obj import reset_object_ids
from repro.serve.loadgen import render


def main() -> None:
    closed = LoadGenSpec(
        workload="university", mode="closed", clients=4, nodes=4,
        horizon_days=10.0, scale=0.005, seed=7,
    )
    print(render(run_loadgen(closed)))
    print()

    reset_object_ids()  # fresh auto ids so the second run is self-contained
    open_loop = LoadGenSpec(
        workload="downloads", mode="open", clients=1, nodes=1,
        horizon_days=20.0, seed=3, queue_size=8, batch_max=4,
        open_burst=16, max_requests=300,
    )
    report = run_loadgen(open_loop)
    print(render(report))
    shed = report.responses_by_status.get("shed-backpressure", 0)
    print()
    print(f"The bounded queue shed {shed} of {report.requests} open-loop "
          "requests — backpressure, not unbounded buffering.")


if __name__ == "__main__":
    main()

"""Ablation bench: delete-optimised expiry sweeping (after Douglis et al.).

The paper's related-work section adopts the idea of "grouping objects
that expire together" for cheap deletion.  This microbenchmark compares
frequent expiry sweeps over a store holding many small objects:

* **linear** — ``reclaim_expired`` on a store with the full-scan oracle of
  :mod:`tests.oracles` injected tests every resident per sweep
  (O(residents));
* **indexed** — ``StorageUnit.reclaim_expired`` as shipped reads the
  expired set off :meth:`~repro.core.index.ImportanceIndex.expired_objects`,
  whose phase heap pops only the residents that crossed their expiry since
  the last sweep (O(expired · log residents)).

Both must reclaim exactly the same objects; the bench asserts the
equivalence and reports the sweep-cost ratio.
"""

import time

from benchmarks.conftest import run_once
from repro.core.importance import FixedLifetimeImportance
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.core.obj import StoredObject
from repro.units import days, gib, mib
from tests.oracles import oracle_store

N_OBJECTS = 4000
SWEEP_EVERY = days(1)
HORIZON = days(120)


def populate(store):
    for i in range(N_OBJECTS):
        obj = StoredObject(
            size=mib(1),
            t_arrival=0.0,
            lifetime=FixedLifetimeImportance(
                p=1.0, expire_after=days(1 + (i % 100))
            ),
            object_id=f"o{i}",
        )
        assert store.offer(obj, 0.0).admitted


def run_comparison():
    linear_store = oracle_store(gib(8), TemporalImportancePolicy(), name="linear")
    populate(linear_store)
    indexed_store = StorageUnit(gib(8), TemporalImportancePolicy(), name="indexed")
    populate(indexed_store)

    linear_removed, indexed_removed = [], []
    t_linear = t_indexed = 0.0
    now = SWEEP_EVERY
    while now <= HORIZON:
        start = time.perf_counter()
        linear_removed.extend(
            r.object_id for r in linear_store.reclaim_expired(now)
        )
        t_linear += time.perf_counter() - start

        start = time.perf_counter()
        indexed_removed.extend(
            r.object_id for r in indexed_store.reclaim_expired(now)
        )
        t_indexed += time.perf_counter() - start
        now += SWEEP_EVERY

    return {
        "linear_removed": sorted(linear_removed),
        "indexed_removed": sorted(indexed_removed),
        "t_linear": t_linear,
        "t_indexed": t_indexed,
        "residents_after": linear_store.resident_count,
    }


def test_ablation_expiry_index(benchmark, save_artifact):
    result = run_once(benchmark, run_comparison)

    # Correctness first: both strategies reclaim exactly the same objects.
    assert result["linear_removed"] == result["indexed_removed"]
    assert len(result["linear_removed"]) == N_OBJECTS  # everything expires
    assert result["residents_after"] == 0

    # The index-backed sweep beats the linear scan clearly at this shape
    # (many residents, frequent sweeps).
    assert result["t_indexed"] < result["t_linear"]

    speedup = result["t_linear"] / max(result["t_indexed"], 1e-9)
    save_artifact(
        "ablation_expiry_index",
        "\n".join([
            f"Expiry sweeping over {N_OBJECTS} objects, daily sweeps, 120 days",
            f"  linear scan total:  {result['t_linear'] * 1e3:8.1f} ms",
            f"  indexed sweep total:{result['t_indexed'] * 1e3:8.1f} ms",
            f"  speedup:            {speedup:8.1f}x",
        ]),
        # Embeds wall-clock timings; different every run by design.
        checksum=False,
    )

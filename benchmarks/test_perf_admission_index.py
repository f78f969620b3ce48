"""Perf bench: admission planning with and without the importance index.

The naive admission planner sorts *every* resident by importance on each
pressured offer — O(n log n) per admission.  The importance index keeps
residents bucketed by annotation phase and walks the ascending
constant-``p`` buckets only until the candidate byte total covers the
deficit, then sorts just that tail.  This bench fills a store to capacity
with ``n`` constant-phase residents at varied importances and times a
fixed burst of preempting offers against twin stores — the naive one is
a ``StorageUnit`` with the full-scan oracle of :mod:`tests.oracles`
injected, the indexed one is the store as shipped — asserting that the
two paths evict the exact same victims and that the index delivers at
least a 5x speedup at 50k residents.

Wall-clock renders differ on every run, so the artifact is saved with
``checksum=False`` and only the module timing is baselined.
"""

from time import perf_counter

from benchmarks.conftest import run_once
from repro.core.importance import TwoStepImportance
from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from tests.oracles import oracle_store

#: Residents never leave the constant phase during the bench.
PERSIST = 1.0e9
PRESSURED_OFFERS = 30
INCOMING_SIZE = 5


def _filled_store(n: int, *, indexed: bool) -> StorageUnit:
    store = (StorageUnit if indexed else oracle_store)(
        n,
        TemporalImportancePolicy(),
        name=f"{'idx' if indexed else 'naive'}-{n}",
        keep_history=False,
    )
    for i in range(n):
        # 101 distinct importance levels spread over [0.2, 0.9].
        p = 0.2 + 0.7 * (i % 101) / 101.0
        store.offer(
            StoredObject(
                size=1,
                t_arrival=0.0,
                lifetime=TwoStepImportance(p=p, t_persist=PERSIST, t_wane=PERSIST),
                object_id=f"r-{i}",
            ),
            0.0,
        )
    assert store.used_bytes == store.capacity_bytes
    return store


def _pressure(store: StorageUnit, now: float) -> tuple[float, list[str]]:
    """Time a burst of preempting offers; return (seconds, victim ids)."""
    victims: list[str] = []
    t0 = perf_counter()
    for k in range(PRESSURED_OFFERS):
        result = store.offer(
            StoredObject(
                size=INCOMING_SIZE,
                t_arrival=now,
                lifetime=TwoStepImportance(p=0.95, t_persist=PERSIST, t_wane=PERSIST),
                object_id=f"hot-{k}",
            ),
            now,
        )
        assert result.admitted
        victims.extend(record.obj.object_id for record in result.evictions)
    return perf_counter() - t0, victims


def run_comparison(sizes=(10_000, 50_000)):
    out = {}
    for n in sizes:
        naive = _filled_store(n, indexed=False)
        indexed = _filled_store(n, indexed=True)
        naive_seconds, naive_victims = _pressure(naive, 1.0)
        indexed_seconds, indexed_victims = _pressure(indexed, 1.0)
        assert naive_victims == indexed_victims, "index changed victim selection"
        out[n] = {
            "naive_seconds": naive_seconds,
            "indexed_seconds": indexed_seconds,
            "speedup": naive_seconds / indexed_seconds,
        }
    return out


def test_perf_admission_index(benchmark, save_artifact):
    results = run_once(benchmark, run_comparison)

    # The acceptance bar: >= 5x over the naive full sort at 50k residents.
    assert results[50_000]["speedup"] >= 5.0
    # The advantage must grow with n (O(n log n) vs bucket-walk planning).
    assert results[50_000]["speedup"] > results[10_000]["speedup"] * 0.5

    lines = [
        "Admission planning: naive full sort vs importance index "
        f"({PRESSURED_OFFERS} preempting offers)",
    ]
    for n, stats in sorted(results.items()):
        lines.append(
            f"  {n:>6} residents: naive {stats['naive_seconds'] * 1e3:8.1f} ms   "
            f"indexed {stats['indexed_seconds'] * 1e3:8.1f} ms   "
            f"speedup {stats['speedup']:6.1f}x"
        )
    save_artifact("perf_admission_index", "\n".join(lines), checksum=False)

"""Perf bench: exact density probes once every resident is waning.

``test_perf_admission_index`` never leaves the constant phase, where the
index answers a density probe from its running expansion without looking
at a single resident.  In a long run the opposite regime dominates: once a
term's lectures leave their persist window *every* resident is waning, the
mass must be re-evaluated per probe, and nothing dedups (each
``(annotation, t_arrival)`` pair is unique).  The naive probe walks
``StoredObject.importance_at`` per resident; the index leaves each waning
resident in its ``(p, t_wane)`` victim family, sorted by absolute expiry,
and evaluates each family's waning run in one pass
(``GroupedResidents.wane_terms``).

This bench fills twin stores (naive = the full-scan oracle of
:mod:`tests.oracles` injected, indexed = as shipped) with ``n`` residents
across 64 two-step annotations, moves the clock to where all of them are
inside their wane window, and times 50 exact probes on each (off the grid)
— asserting that the densities are bit-equal.  It runs twice:

* arrivals on the integer-minute grid (``ARRIVAL_STEP`` 1.0), where every
  resident is in a family: the families must deliver at least 4x at 50k
  residents;
* arrivals every 0.37 minutes, off the grid, where no resident is in a
  family and the index evaluates each waning one through
  ``StoredObject.importance_at`` — the oracle's own call chain.  Only
  bit-equality is asserted; the measured ratio is written to
  ``benchmarks/out/perf_density_probe_off_grid.txt``.

One untimed probe first lets the index process its constant→waning
transitions, which a simulation pays once per resident, not once per
probe.

Wall-clock renders differ on every run, so the artifact is saved with
``checksum=False`` and only the module timing is baselined.
"""

from time import perf_counter

import pytest

from benchmarks.conftest import run_once
from repro.core.density import importance_density
from repro.core.importance import TwoStepImportance
from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from tests.oracles import oracle_store

ANNOTATIONS = 64
PROBES = 50
#: Long enough that no resident expires while the probes run.
WANE = 1.0e6
#: Minutes between arrivals: whole minutes put every resident in a family,
#: fractions put none there.
ARRIVAL_STEPS = (1.0, 0.37)


def _filled_store(n: int, arrival_step: float, *, indexed: bool) -> StorageUnit:
    lifetimes = [
        TwoStepImportance(p=0.2 + 0.7 * k / ANNOTATIONS, t_persist=100.0 + k, t_wane=WANE)
        for k in range(ANNOTATIONS)
    ]
    sizes = [1 + (i * 7919) % 4096 for i in range(n)]
    store = (StorageUnit if indexed else oracle_store)(
        sum(sizes),
        TemporalImportancePolicy(),
        name=f"{'idx' if indexed else 'naive'}-{n}",
        keep_history=False,
    )
    for i, size in enumerate(sizes):
        t_arrival = i * arrival_step
        store.offer(
            StoredObject(
                size=size,
                t_arrival=t_arrival,
                lifetime=lifetimes[i % ANNOTATIONS],
                object_id=f"r-{i}",
            ),
            t_arrival,
        )
    assert store.resident_count == n
    return store


def _probe_both(
    naive: StorageUnit, indexed: StorageUnit, start: float
) -> tuple[float, float, list[float], list[float]]:
    """Time ``PROBES`` exact density reads on each store, alternating.

    Alternating per probe keeps a drift in machine speed out of the ratio.
    Returns ``(naive seconds, indexed seconds, naive densities, indexed
    densities)``.
    """
    for store in (naive, indexed):
        importance_density(store, start)  # untimed: phase transitions settle
    seconds = {naive: 0.0, indexed: 0.0}
    densities: dict[StorageUnit, list[float]] = {naive: [], indexed: []}
    for j in range(PROBES):
        now = start + 13.7 * (j + 1)
        for store in (naive, indexed):
            t0 = perf_counter()
            density = importance_density(store, now)
            seconds[store] += perf_counter() - t0
            densities[store].append(density)
    return seconds[naive], seconds[indexed], densities[naive], densities[indexed]


def run_comparison(arrival_step, sizes=(10_000, 50_000)):
    out = {}
    for n in sizes:
        # Past the last arrival's persist window, far inside every wane.
        start = n * arrival_step + 100.0 + ANNOTATIONS + 1.0
        naive = _filled_store(n, arrival_step, indexed=False)
        indexed = _filled_store(n, arrival_step, indexed=True)
        naive_seconds, indexed_seconds, naive_densities, indexed_densities = _probe_both(
            naive, indexed, start
        )
        assert indexed.importance_index.waning_count == n, "a resident left the wane window"
        assert [d.hex() for d in naive_densities] == [d.hex() for d in indexed_densities]
        assert len(set(naive_densities)) == PROBES, "the probes should all differ"
        out[n] = {
            "naive_seconds": naive_seconds,
            "indexed_seconds": indexed_seconds,
            "speedup": naive_seconds / indexed_seconds,
        }
    return out


@pytest.mark.parametrize("arrival_step", ARRIVAL_STEPS)
def test_perf_density_probe(benchmark, save_artifact, arrival_step):
    results = run_once(benchmark, run_comparison, arrival_step)
    on_grid = arrival_step == 1.0

    if on_grid:
        # The acceptance bar: >= 4x over the per-resident call chain at 50k.
        assert results[50_000]["speedup"] >= 4.0

    where = "victim families" if on_grid else f"off-grid arrivals every {arrival_step} min"
    lines = [
        f"Exact density probe, every resident waning: naive scan vs {where} "
        f"({PROBES} probes, {ANNOTATIONS} annotations)",
    ]
    for n, stats in sorted(results.items()):
        lines.append(
            f"  {n:>6} residents: naive {stats['naive_seconds'] * 1e3:8.1f} ms   "
            f"indexed {stats['indexed_seconds'] * 1e3:8.1f} ms   "
            f"speedup {stats['speedup']:6.1f}x"
        )
    name = "perf_density_probe" if on_grid else "perf_density_probe_off_grid"
    save_artifact(name, "\n".join(lines), checksum=False)

"""Storage importance density (paper Sections 4.4 and 5.1.2).

The *instantaneous storage importance density* scales each stored byte by
its current importance and normalises by the raw capacity::

    density = sum(importance_i * size_i) / capacity

Expired objects and unallocated storage contribute zero.  The density is a
number in ``[0, 1]`` and is the feedback signal content creators use to
choose annotations: at density ``d`` an arrival whose initial importance is
comfortably above the store's current preemption threshold will be
admitted, while objects near or below it find the store *full*.

This module also produces the byte-importance snapshot behind Figure 7 (the
cumulative distribution of importance over stored bytes) and the admission
threshold probe used by Figures 6/12 commentary.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from repro.core.store import StorageUnit
from repro.errors import SimulationError

__all__ = [
    "importance_density",
    "byte_importance_snapshot",
    "importance_histogram",
    "admission_threshold",
    "DensitySample",
]


@dataclass(frozen=True)
class DensitySample:
    """One periodic probe of a store's density (time-series element)."""

    t: float
    density: float
    used_bytes: int
    capacity_bytes: int
    resident_count: int


def importance_density(store: StorageUnit, now: float) -> float:
    """Instantaneous storage importance density of ``store`` at ``now``.

    Returns a value in ``[0, 1]``; an empty store has density 0 and a store
    packed with importance-1 objects approaches 1 (exactly 1 only if no
    byte is free).

    The store's :class:`~repro.core.index.ImportanceIndex` answers instead
    of a scan over every resident; the result is bit-identical to that scan
    (both are the correctly-rounded sum of the same per-object terms).  A
    NaN ``now`` raises :class:`~repro.errors.SimulationError`.
    """
    if now != now:
        raise SimulationError("importance density needs a time, got NaN")
    return store.importance_index.exact_mass(now) / store.capacity_bytes


def byte_importance_snapshot(
    store: StorageUnit, now: float, *, include_free: bool = True
) -> list[tuple[float, int]]:
    """Per-importance byte masses at ``now``, sorted by importance.

    Returns ``[(importance, bytes), ...]`` in increasing importance order.
    With ``include_free=True`` (the paper's convention for Figure 7) free
    and expired capacity appears as a mass at importance 0.0 so the CDF is
    taken over the raw capacity.
    """
    masses: dict[float, int] = {}
    for obj in store.iter_residents():
        importance = obj.importance_at(now)
        masses[importance] = masses.get(importance, 0) + obj.size
    if include_free and store.free_bytes > 0:
        masses[0.0] = masses.get(0.0, 0) + store.free_bytes
    return sorted(masses.items())


def importance_histogram(
    store: StorageUnit,
    now: float,
    *,
    bins: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    include_free: bool = False,
) -> list[tuple[float, float, int]]:
    """Byte histogram over importance bins.

    ``bins`` are ascending edges; the result lists ``(lo, hi, bytes)`` per
    half-open bin ``[lo, hi)``, with the final bin closed at 1.0 so that
    importance-1 bytes are counted.
    """
    edges = list(bins)
    if len(edges) < 2 or any(b >= a for a, b in zip(edges[1:], edges)):
        raise ValueError(f"bins must be >= 2 ascending edges, got {bins!r}")
    counts = [0] * (len(edges) - 1)
    for importance, size in byte_importance_snapshot(store, now, include_free=include_free):
        # Index of the bin whose half-open interval [lo, hi) holds the
        # importance: the last edge <= it.  Clamping covers the two closed
        # ends — below the first edge lands in the first bin, and anything
        # at or above the last edge (importance 1.0 with default bins) lands
        # in the final, closed bin.
        idx = bisect_right(edges, importance) - 1
        idx = min(max(idx, 0), len(counts) - 1)
        counts[idx] += size
    return [(edges[i], edges[i + 1], counts[i]) for i in range(len(counts))]


def admission_threshold(store: StorageUnit, probe_size: int, now: float) -> float:
    """Lowest initial importance (to 2 decimals) admissible right now.

    Probes the store's policy with synthetic ``probe_size`` objects and
    returns the smallest importance that would be admitted; returns ``inf``
    if even importance 1.0 is refused (e.g. the probe exceeds raw
    capacity).  The *difference* between this threshold and an object's
    annotated importance is the longevity indication the paper describes in
    Section 5.1.2.

    Admissibility is monotone in the probe's importance under preemptive
    admission — the victim set and its highest preempted importance do not
    depend on the probe's own importance, only the final comparison does —
    so the 101 candidate steps are binary-searched with at most 8
    ``peek_admission`` calls instead of scanned linearly.
    """
    from repro.core.importance import FixedLifetimeImportance
    from repro.core.obj import StoredObject

    def admits(step: int) -> bool:
        importance = step / 100.0
        probe = StoredObject(
            size=probe_size,
            t_arrival=now,
            lifetime=FixedLifetimeImportance(p=importance, expire_after=1.0)
            if importance > 0.0
            else FixedLifetimeImportance(p=0.0, expire_after=0.0),
            object_id=f"__probe-{step}",
        )
        return store.peek_admission(probe, now).admit

    if not admits(100):
        return float("inf")
    # Invariant: step `hi` admits, every step below `lo` refuses.
    lo, hi = 0, 100
    while lo < hi:
        mid = (lo + hi) // 2
        if admits(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi / 100.0

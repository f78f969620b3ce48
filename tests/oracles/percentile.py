"""Exact nearest-rank percentile: the reference for bucketed quantiles.

The serving report reads its latency percentiles off summed bucket counts
(:func:`repro.serve.sharded._latency_quantile`), which pool across shards
where per-shard order statistics cannot.  This is the order statistic
those estimates are held to, within one bucket.
"""

from __future__ import annotations

__all__ = ["nearest_rank"]


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]

"""Longevity prediction from the density signal (Section 5.1.2).

"The difference between the storage density and the object importance
gives some indication of the object longevity" — and "the average storage
importance density ... is a reasonable predictor of this state of the
storage".  This module quantifies both statements:

* :func:`longevity_margin` — the per-object predictor: initial importance
  minus the density at arrival.
* :func:`prediction_pairs` — join a run's eviction records with its
  density time-series to produce (margin, satisfaction) pairs.
* :func:`margin_correlation` — Pearson/Spearman correlation between the
  margin and the satisfaction actually achieved; a usable feedback signal
  shows a clearly positive association.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from scipy import stats

from repro.analysis.lifetimes import satisfaction_ratio
from repro.core.density import DensitySample
from repro.core.store import EvictionRecord

__all__ = [
    "longevity_margin",
    "PredictionPair",
    "prediction_pairs",
    "margin_correlation",
]


def longevity_margin(initial_importance: float, density_at_arrival: float) -> float:
    """The paper's longevity indicator, in ``[-1, 1]``.

    Positive: the object out-ranks the average stored byte and should
    persist; negative: the store is effectively full for it already.
    """
    return initial_importance - density_at_arrival


@dataclass(frozen=True)
class PredictionPair:
    """One evicted object's predicted margin vs. achieved satisfaction."""

    object_id: str
    margin: float
    satisfaction: float
    density_at_arrival: float


def _density_at(samples: Sequence[DensitySample], t: float) -> float:
    """Density in effect at time ``t`` (last sample at or before it)."""
    times = [s.t for s in samples]
    idx = bisect_right(times, t) - 1
    if idx < 0:
        return 0.0  # before the first sample the store was empty
    return samples[idx].density


def prediction_pairs(
    evictions: Sequence[EvictionRecord],
    density_samples: Sequence[DensitySample],
) -> list[PredictionPair]:
    """Join eviction records with the density series.

    Only preemption victims are scored (expired/manual removals say
    nothing about pressure).  Density samples must be time-sorted, as the
    recorder produces them.
    """
    pairs: list[PredictionPair] = []
    for record in evictions:
        if record.reason != "preempted":
            continue
        density = _density_at(density_samples, record.t_arrival)
        margin = longevity_margin(
            record.lifetime.initial_importance, density
        )
        pairs.append(
            PredictionPair(
                object_id=record.object_id,
                margin=margin,
                satisfaction=satisfaction_ratio(record),
                density_at_arrival=density,
            )
        )
    return pairs


def margin_correlation(pairs: Sequence[PredictionPair]) -> dict[str, float]:
    """Pearson and Spearman correlation of margin vs. satisfaction.

    Raises :class:`ValueError` for fewer than 3 pairs or zero-variance
    inputs (no pressure ⇒ nothing to predict).
    """
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 pairs, got {len(pairs)}")
    margins = [p.margin for p in pairs]
    satisfactions = [p.satisfaction for p in pairs]
    if len(set(margins)) < 2 or len(set(satisfactions)) < 2:
        raise ValueError("margin or satisfaction has no variance")
    pearson = stats.pearsonr(margins, satisfactions)
    spearman = stats.spearmanr(margins, satisfactions)
    return {
        "pearson_r": float(pearson.statistic),
        "pearson_p": float(pearson.pvalue),
        "spearman_r": float(spearman.statistic),
        "spearman_p": float(spearman.pvalue),
        "n": float(len(pairs)),
    }

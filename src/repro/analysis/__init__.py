"""Analysis utilities behind the paper's evaluation metrics.

* :mod:`repro.analysis.lifetimes` — achieved-lifetime statistics
  (Figures 3, 9) and importance-at-reclamation summaries (Figure 10).
* :mod:`repro.analysis.timeconstant` — the Palimpsest time-constant
  estimator at hour/day/month windows (Figures 5, 11).
* :mod:`repro.analysis.heteroscedasticity` — Breusch–Pagan style variance
  diagnostics backing the Section 5.1.2 claim that daily time constants
  are heteroscedastic.
* :mod:`repro.analysis.cdf` — byte-importance CDFs (Figure 7).
* :mod:`repro.analysis.summarize` — small descriptive-statistics helpers
  shared by reports and tests.
"""

from repro.analysis.lifetimes import (
    LifetimeStats,
    bucket_lifetimes_by_eviction_day,
    lifetime_stats,
)
from repro.analysis.timeconstant import (
    TimeConstantSeries,
    WINDOW_DAY,
    WINDOW_HOUR,
    WINDOW_MONTH,
    estimate_time_constants,
)
from repro.analysis.heteroscedasticity import (
    BreuschPaganResult,
    breusch_pagan,
    rolling_variance,
)
from repro.analysis.cdf import byte_importance_cdf, minimum_storable_importance
from repro.analysis.prediction import (
    PredictionPair,
    longevity_margin,
    margin_correlation,
    prediction_pairs,
)
from repro.analysis.summarize import describe, percentile

__all__ = [
    "BreuschPaganResult",
    "LifetimeStats",
    "PredictionPair",
    "longevity_margin",
    "margin_correlation",
    "prediction_pairs",
    "TimeConstantSeries",
    "WINDOW_DAY",
    "WINDOW_HOUR",
    "WINDOW_MONTH",
    "breusch_pagan",
    "bucket_lifetimes_by_eviction_day",
    "byte_importance_cdf",
    "describe",
    "estimate_time_constants",
    "lifetime_stats",
    "minimum_storable_importance",
    "percentile",
    "rolling_variance",
]

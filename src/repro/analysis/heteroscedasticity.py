"""Heteroscedasticity diagnostics (paper Section 5.1.2).

The paper observes that the daily time-constant series "exhibit[s]
heteroscedasticity of the variance, wherein the variance of the time
constant is not the same for all time intervals and depends on the arrival
rate" — i.e. a client cannot even bound its prediction error uniformly.

We implement the standard **Breusch–Pagan** Lagrange-multiplier test
(regress the series on time, then regress squared residuals on time; under
homoscedasticity ``n·R²`` is χ²(1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats

__all__ = ["BreuschPaganResult", "breusch_pagan"]


@dataclass(frozen=True)
class BreuschPaganResult:
    """Breusch–Pagan test outcome."""

    lm_statistic: float
    p_value: float
    n: int

    def heteroscedastic(self, alpha: float = 0.05) -> bool:
        """True when the homoscedasticity null is rejected at ``alpha``."""
        return self.p_value < alpha


def breusch_pagan(
    x: Sequence[float], y: Sequence[float]
) -> BreuschPaganResult:
    """Breusch–Pagan LM test of ``y`` on the single regressor ``x``.

    Steps: OLS of y on [1, x]; e = residuals; auxiliary OLS of e² on
    [1, x]; LM = n·R²(aux) ~ χ²(1) under homoscedastic errors.

    Raises :class:`ValueError` for fewer than 4 points or a constant
    regressor (the test is undefined there).
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("x and y must be 1-D sequences of equal length")
    n = xs.size
    if n < 4:
        raise ValueError(f"need at least 4 points, got {n}")
    if np.allclose(xs, xs[0]):
        raise ValueError("regressor is constant; Breusch-Pagan is undefined")

    design = np.column_stack([np.ones(n), xs])
    beta, *_ = np.linalg.lstsq(design, ys, rcond=None)
    residuals = ys - design @ beta

    squared = residuals**2
    gamma, *_ = np.linalg.lstsq(design, squared, rcond=None)
    fitted = design @ gamma
    ss_res = float(np.sum((squared - fitted) ** 2))
    ss_tot = float(np.sum((squared - squared.mean()) ** 2))
    r2 = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    lm = n * max(0.0, r2)
    p = float(stats.chi2.sf(lm, df=1))
    return BreuschPaganResult(lm_statistic=float(lm), p_value=p, n=int(n))


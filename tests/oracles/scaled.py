"""A user-defined annotation: another importance function scaled by a factor.

The library ships no such class.  Tests use :class:`Scaled` where they need
an annotation a caller defines for itself: the store cannot verify its
float monotonicity, so it files each such resident in a single-object
victim group and reads its stable end through the generic path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.importance import ImportanceFunction

__all__ = ["Scaled"]


@dataclass(frozen=True, slots=True)
class Scaled(ImportanceFunction):
    """``factor * inner(t)`` for a factor in ``(0, 1]``: same shape and expiry."""

    inner: ImportanceFunction
    factor: float

    def __post_init__(self) -> None:
        if math.isnan(self.factor) or not 0.0 < self.factor <= 1.0:
            raise ValueError(f"scale factor must lie in (0, 1], got {self.factor!r}")

    @property
    def t_expire(self) -> float:
        return self.inner.t_expire

    @property
    def stable_until(self) -> float:
        # factor * (a constant) is itself constant over the same prefix.
        return self.inner.stable_until

    def importance_at(self, age_minutes: float) -> float:
        return self.factor * self.inner.importance_at(age_minutes)

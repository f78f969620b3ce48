"""Annotation advice from storage feedback (paper Sections 1, 5.1.2).

"The other important challenge is on providing enough hints from the
storage to the user in order to help them choose the right annotation and
achieve their application goals.  Without feedback, an importance of say
50% might result in the object being removed immediately."

:class:`AnnotationAdvisor` turns the feedback signals this library already
computes — the storage importance density and the admission-threshold
probe — into a concrete recommendation: given the persistence goal
("keep this fully for N days, tolerate waning for M more"), it returns a
two-step annotation whose initial importance clears the store's current
preemption level by a configurable margin, or reports that the goal is
currently unachievable (the honest alternative to the paper's fear that
users "conservatively create objects ... annotated with an importance of
100% always").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.density import admission_threshold, importance_density
from repro.core.importance import TwoStepImportance
from repro.core.store import StorageUnit
from repro.errors import ReproError
from repro.units import days

__all__ = ["Advice", "AnnotationAdvisor"]


@dataclass(frozen=True)
class Advice:
    """One recommendation from the advisor."""

    achievable: bool
    #: Recommended annotation (None when the goal is unachievable now).
    annotation: TwoStepImportance | None
    #: The store's current admission threshold for objects of this size.
    threshold: float
    #: Current storage importance density (the coarse pressure signal).
    density: float
    #: Importance headroom between the recommendation and the threshold.
    margin: float
    detail: str


class AnnotationAdvisor:
    """Recommends two-step annotations against a live store.

    Parameters
    ----------
    store:
        The storage unit (or Besteffs node store) being advised against.
    target_margin:
        Desired headroom between the recommended initial importance and
        the current admission threshold.  Larger margins survive more
        pressure growth; a margin that would push the importance above
        1.0 is truncated, shrinking the effective safety.
    """

    def __init__(self, store: StorageUnit, *, target_margin: float = 0.2):
        if not 0.0 < target_margin < 1.0:
            raise ReproError(f"target_margin must be in (0, 1), got {target_margin}")
        self.store = store
        self.target_margin = target_margin

    def advise(
        self,
        size_bytes: int,
        persist_days: float,
        wane_days: float,
        now: float,
    ) -> Advice:
        """Recommend an annotation for one prospective object.

        The recommendation is *advisory*: admission still depends on the
        pressure at the actual store time, which is exactly why the margin
        exists.
        """
        if size_bytes <= 0:
            raise ReproError(f"size must be positive, got {size_bytes}")
        if persist_days < 0 or wane_days < 0:
            raise ReproError("persistence and wane durations must be >= 0")

        threshold = admission_threshold(self.store, size_bytes, now)
        density = importance_density(self.store, now)

        if threshold == float("inf"):
            return Advice(
                achievable=False,
                annotation=None,
                threshold=threshold,
                density=density,
                margin=0.0,
                detail=(
                    "store is full even for importance 1.0 objects of this "
                    "size; wait for residents to wane or add capacity"
                ),
            )

        recommended = min(1.0, threshold + self.target_margin)
        margin = recommended - threshold
        if margin <= 0.0:
            # threshold == 1.0 exactly: only importance-1.0 non-waned
            # objects are admitted and nothing can carry headroom.
            return Advice(
                achievable=False,
                annotation=None,
                threshold=threshold,
                density=density,
                margin=0.0,
                detail="admission threshold is already at 1.0; no headroom exists",
            )
        annotation = TwoStepImportance(
            p=recommended,
            t_persist=days(persist_days),
            t_wane=days(wane_days),
        )
        squeezed = margin < self.target_margin
        detail = (
            f"importance {recommended:.2f} clears the current threshold "
            f"{threshold:.2f} by {margin:.2f}"
        )
        if squeezed:
            detail += " (margin truncated at the importance ceiling)"
        return Advice(
            achievable=True,
            annotation=annotation,
            threshold=threshold,
            density=density,
            margin=margin,
            detail=detail,
        )

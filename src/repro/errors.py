"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything emitted by this package with a single ``except`` clause
while still being able to discriminate the failure mode precisely.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class AnnotationError(ReproError):
    """An importance annotation is malformed or violates its invariants.

    Raised, for example, when a two-step function is constructed with a
    negative persistence duration or an initial importance outside
    ``[0, 1]``.
    """


class CapacityError(ReproError):
    """An operation would violate a storage unit's capacity invariant."""


class ObjectTooLargeError(CapacityError):
    """A single object exceeds the raw capacity of the target storage unit.

    Such an object can never be stored regardless of the importance of the
    current residents, so it is reported distinctly from a transient
    :class:`StorageFullError`.
    """


class StorageFullError(CapacityError):
    """The storage is *full for this object's importance level*.

    Per the paper (Section 3), fullness is relative: a store that rejects an
    importance-0.3 object may still accept an importance-0.9 object by
    preempting less important residents.  The exception carries the
    admission verdict so callers can inspect why the object was refused.
    """

    def __init__(self, message: str, *, blocking_importance: float | None = None):
        super().__init__(message)
        #: Lowest current importance that would have had to be preempted;
        #: an object must exceed this to be admitted right now.
        self.blocking_importance = blocking_importance


class UnknownObjectError(ReproError):
    """An object id was not found in the store / cluster being queried."""


class SimulationError(ReproError):
    """The simulation engine detected an inconsistent schedule or state."""


class PlacementError(ReproError):
    """Besteffs could not place an object on any sampled storage unit."""


class OverlayError(ReproError):
    """The p2p overlay is malformed (e.g. empty, disconnected sampling)."""


class ObservabilityError(ReproError):
    """The telemetry layer was misused (bad metric name, label mismatch,
    conflicting re-registration, unknown log level, ...)."""

"""Stored objects (paper Section 3).

An object ``O`` is described by the tuple ``(s, t_a, L)`` — size in bytes,
arrival time in simulation minutes, and a temporal importance function
``L``.  We additionally carry an opaque id, a creator-class label (used by
the lecture scenario to distinguish university cameras from student
uploads) and free-form metadata for experiment bookkeeping.

Objects are immutable: *Besteffs* is write-once with versioned updates, so
an "update" is a new object.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.core.importance import ImportanceFunction
from repro.errors import AnnotationError

__all__ = ["EMPTY_METADATA", "FrozenMetadata", "ObjectId", "StoredObject", "reset_object_ids"]

#: Object identifiers are plain strings: deterministic, human-readable and
#: trivially serialisable.  Generated ids look like ``"obj-000042"``.
ObjectId = str

_id_counter = itertools.count()


def _next_object_id() -> ObjectId:
    return f"obj-{next(_id_counter):06d}"


def reset_object_ids() -> None:
    """Reset the auto-increment id stream (for reproducible tests/sims)."""
    global _id_counter
    _id_counter = itertools.count()


class FrozenMetadata(Mapping[str, Any]):
    """A read-only copy of a metadata mapping that, unlike ``MappingProxyType``,
    pickles; the empty one pickles back to :data:`EMPTY_METADATA`."""

    __slots__ = ("_items",)

    def __init__(self, items: Mapping[str, Any]) -> None:
        self._items = dict(items)

    def __getitem__(self, key: str) -> Any:
        return self._items[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __reduce__(self) -> str | tuple[Any, ...]:
        if self is EMPTY_METADATA:
            return "EMPTY_METADATA"
        return (FrozenMetadata, (self._items,))


#: The metadata of every object created without any: one shared instance.
EMPTY_METADATA = FrozenMetadata({})


@dataclass(frozen=True, slots=True)
class StoredObject:
    """An annotated storage object: ``(size, t_arrival, lifetime)``.

    Parameters
    ----------
    size:
        Object size in bytes; must be a positive integer.
    t_arrival:
        Arrival time in simulation minutes (>= 0).
    lifetime:
        The temporal importance function :math:`L(t)` attached as a
        first-class attribute.
    object_id:
        Optional explicit id; auto-generated when omitted.
    creator:
        Free-form creator-class label (e.g. ``"university"``/``"student"``).
    metadata:
        Read-only mapping of experiment bookkeeping, copied once into a
        :class:`FrozenMetadata` (shared as is; empty is :data:`EMPTY_METADATA`).
    """

    size: int
    t_arrival: float
    lifetime: ImportanceFunction
    object_id: ObjectId = field(default="")
    creator: str = "default"
    # A factory, not a default: Python 3.11+ refuses an unhashable default.
    metadata: Mapping[str, Any] = field(default_factory=lambda: EMPTY_METADATA)

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or isinstance(self.size, bool):
            raise AnnotationError(f"object size must be an int (bytes), got {self.size!r}")
        if self.size <= 0:
            raise AnnotationError(f"object size must be positive, got {self.size}")
        t = float(self.t_arrival)
        if not (math.isfinite(t) and t >= 0.0):
            raise AnnotationError(f"t_arrival must be finite and >= 0, got {self.t_arrival!r}")
        object.__setattr__(self, "t_arrival", t)
        if not isinstance(self.lifetime, ImportanceFunction):
            raise AnnotationError(
                f"lifetime must be an ImportanceFunction, got {self.lifetime!r}"
            )
        if not self.object_id:
            object.__setattr__(self, "object_id", _next_object_id())
        if type(self.metadata) is not FrozenMetadata:
            if not isinstance(self.metadata, Mapping):
                raise AnnotationError(f"metadata must be a mapping, got {self.metadata!r}")
            frozen = FrozenMetadata(self.metadata) if self.metadata else EMPTY_METADATA
            object.__setattr__(self, "metadata", frozen)

    # -- temporal queries --------------------------------------------------

    def age_at(self, now_minutes: float) -> float:
        """Age of this object (minutes) at absolute simulation time ``now``."""
        return max(0.0, float(now_minutes) - self.t_arrival)

    def importance_at(self, now_minutes: float) -> float:
        """Current importance at absolute simulation time ``now``."""
        return self.lifetime.importance_at(self.age_at(now_minutes))

    def is_expired_at(self, now_minutes: float) -> bool:
        """True once the object's entire annotated lifetime has elapsed."""
        return self.lifetime.is_expired(self.age_at(now_minutes))

    def remaining_lifetime_at(self, now_minutes: float) -> float:
        """Minutes of annotated lifetime left at absolute time ``now``."""
        return self.lifetime.remaining_lifetime(self.age_at(now_minutes))

    @property
    def t_expire_abs(self) -> float:
        """Absolute simulation time at which the annotation expires."""
        return self.t_arrival + self.lifetime.t_expire

    def __repr__(self) -> str:  # keep log lines short
        return (
            f"StoredObject(id={self.object_id!r}, size={self.size}, "
            f"t_arrival={self.t_arrival:.0f}, creator={self.creator!r})"
        )

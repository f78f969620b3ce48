"""Per-creator byte totals of a unit's residents.

The sharded simulation asks every unit for its bytes per creator at each
epoch barrier; a walk over the residents would dominate at mega scale.
:class:`ResidentSlab` keeps the totals on :meth:`add` / :meth:`discard`,
so the ask is O(#creators).  It holds nothing per resident.
"""

from __future__ import annotations

from repro.core.obj import StoredObject

__all__ = ["ResidentSlab"]


class ResidentSlab:
    """Running resident bytes per creator label."""

    __slots__ = ("_bytes",)

    def __init__(self) -> None:
        #: creator -> resident bytes, in first-seen order (zeros kept).
        self._bytes: dict[str, int] = {}

    def add(self, obj: StoredObject) -> None:
        """Count a freshly admitted resident."""
        tally = self._bytes
        tally[obj.creator] = tally.get(obj.creator, 0) + obj.size

    def discard(self, obj: StoredObject) -> None:
        """Uncount a resident that left."""
        self._bytes[obj.creator] -= obj.size

    def bytes_by_creator(self) -> dict[str, int]:
        """Resident bytes per creator class, skipping empty classes."""
        return {name: total for name, total in self._bytes.items() if total}

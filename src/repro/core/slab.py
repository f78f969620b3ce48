"""Slab-backed resident state: per-creator byte totals behind the store API.

At mega-scale (tens of thousands of storage units, millions of resident
objects) a per-creator byte tally that walks every ``StoredObject`` is
the dominant cost of the sharded simulation's per-epoch summary, which
asks every unit of every shard.  The :class:`ResidentSlab` keeps what
that tally needs — each resident's size and interned creator code — in
``array`` columns indexed by a stable slot id, with an explicit free
list so slots recycle without compaction, and maintains the per-creator
totals incrementally on :meth:`add` / :meth:`discard`.

The slab is a **secondary representation**: the store's insertion-ordered
dict of residents remains the source of truth (iteration order, object
identity, policy planning), and differential tests validate the slab
against it after every mutation (:meth:`validate`).  The one read it
serves is :meth:`bytes_by_creator`, O(#creators).
"""

from __future__ import annotations

from array import array

from repro.core.obj import ObjectId, StoredObject
from repro.errors import ReproError

__all__ = ["ResidentSlab"]


class ResidentSlab:
    """Parallel-array resident columns with slot recycling."""

    __slots__ = (
        "_size",
        "_oids",
        "_slot_of",
        "_free",
        "_creator_code",
        "_creator_codes",
        "_creator_names",
        "_creator_bytes",
        "_used_bytes",
    )

    def __init__(self) -> None:
        # One entry per slot; dead slots keep stale values and sit on the
        # free list until recycled.
        self._size = array("q")
        self._oids: list[ObjectId | None] = []
        self._creator_code = array("l")
        self._slot_of: dict[ObjectId, int] = {}
        self._free: list[int] = []
        # Creator labels interned to small ints, with running byte totals.
        self._creator_codes: dict[str, int] = {}
        self._creator_names: list[str] = []
        self._creator_bytes: list[int] = []
        self._used_bytes = 0

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, object_id: ObjectId) -> bool:
        return object_id in self._slot_of

    @property
    def slots(self) -> int:
        """Allocated slots including free ones (capacity of the arrays)."""
        return len(self._oids)

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    # -- mutation ----------------------------------------------------------

    def add(self, obj: StoredObject) -> int:
        """Claim a slot for a freshly admitted resident; returns the slot."""
        oid = obj.object_id
        if oid in self._slot_of:
            raise ReproError(f"{oid!r} already occupies a slab slot")
        creator = obj.creator
        code = self._creator_codes.get(creator)
        if code is None:
            code = len(self._creator_names)
            self._creator_codes[creator] = code
            self._creator_names.append(creator)
            self._creator_bytes.append(0)
        if self._free:
            slot = self._free.pop()
            self._size[slot] = obj.size
            self._creator_code[slot] = code
            self._oids[slot] = oid
        else:
            slot = len(self._oids)
            self._size.append(obj.size)
            self._creator_code.append(code)
            self._oids.append(oid)
        self._slot_of[oid] = slot
        self._creator_bytes[code] += obj.size
        self._used_bytes += obj.size
        return slot

    def discard(self, object_id: ObjectId) -> None:
        """Release a resident's slot (idempotent)."""
        slot = self._slot_of.pop(object_id, None)
        if slot is None:
            return
        size = self._size[slot]
        self._creator_bytes[self._creator_code[slot]] -= size
        self._used_bytes -= size
        self._oids[slot] = None
        self._free.append(slot)

    # -- aggregate probe ---------------------------------------------------

    def bytes_by_creator(self) -> dict[str, int]:
        """Resident bytes per creator class, skipping empty classes."""
        return {
            name: total
            for name, total in zip(self._creator_names, self._creator_bytes)
            if total
        }

    # -- diagnostics -------------------------------------------------------

    def validate(self, residents: dict[ObjectId, StoredObject]) -> bool:
        """Check every column against the dict-of-objects oracle."""
        if len(self._slot_of) != len(residents):
            raise ReproError(
                f"slab holds {len(self._slot_of)} residents, oracle {len(residents)}"
            )
        live = 0
        total = 0
        per_creator: dict[str, int] = {}
        for slot, oid in enumerate(self._oids):
            if oid is None:
                continue
            live += 1
            obj = residents.get(oid)
            if obj is None:
                raise ReproError(f"slab slot {slot} holds unknown resident {oid!r}")
            if self._slot_of.get(oid) != slot:
                raise ReproError(f"slot map disagrees for {oid!r}")
            if (
                self._size[slot] != obj.size
                or self._creator_names[self._creator_code[slot]] != obj.creator
            ):
                raise ReproError(f"slab columns are stale for {oid!r}")
            total += obj.size
            per_creator[obj.creator] = per_creator.get(obj.creator, 0) + obj.size
        if live != len(residents):
            raise ReproError("slab live-slot count disagrees with the oracle")
        if live + len(self._free) != len(self._oids):
            raise ReproError("slab free list does not cover the dead slots")
        if total != self._used_bytes:
            raise ReproError("slab byte total is stale")
        if per_creator != self.bytes_by_creator():
            raise ReproError("slab per-creator byte totals are stale")
        return True

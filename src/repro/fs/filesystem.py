"""The temporal filesystem facade (paper §6).

:class:`TemporalFS` exposes the familiar write / read / stat / listdir /
remove verbs over a temporal-importance store, with two deliberate
departures from POSIX semantics that *are* the paper's point:

1. **Files fade.**  Under storage pressure the least important files are
   reclaimed; reading a faded file raises :class:`FileFadedError` (a
   subclass of the built-in :class:`FileNotFoundError`, so ordinary error
   handling works).
2. **Writes can be refused.**  When the volume is full *for the file's
   importance level*, the write raises
   :class:`~repro.errors.StorageFullError` carrying the blocking
   importance — the caller can consult :meth:`TemporalFS.advise` and
   retry with a more competitive annotation.

File bytes are held in memory (this is a prototype, like the one the
paper promises); the storage accounting, eviction and density behaviour
are the real library code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.advisor import Advice, AnnotationAdvisor
from repro.core.density import importance_density
from repro.core.importance import ImportanceFunction
from repro.core.obj import ObjectId, StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import EvictionRecord, StorageUnit
from repro.errors import CapacityError, StorageFullError
from repro.ext.reannotate import reannotate
from repro.fs.path import PathError, is_within, normalize_path
from repro.fs.policy import DefaultAnnotationPolicy

__all__ = ["FileFadedError", "FileStat", "TemporalFS"]


class FileFadedError(FileNotFoundError):
    """The file's bytes were reclaimed by storage pressure.

    Distinguishable from "never existed" (:class:`FileNotFoundError` is
    raised for those) so applications can react differently — e.g. by
    re-fetching a faded download.
    """


@dataclass(frozen=True)
class FileStat:
    """Metadata returned by :meth:`TemporalFS.stat`."""

    path: str
    size: int
    created_at: float
    importance: float
    expires_at: float
    annotation: ImportanceFunction


class TemporalFS:
    """A path-keyed prototype filesystem over a temporal store."""

    def __init__(
        self,
        capacity_bytes: int,
        *,
        policy: DefaultAnnotationPolicy | None = None,
        name: str = "temporalfs",
    ) -> None:
        self.store = StorageUnit(
            capacity_bytes, TemporalImportancePolicy(), name=name, keep_history=False
        )
        self.defaults = policy if policy is not None else DefaultAnnotationPolicy()
        self._path_of: dict[ObjectId, str] = {}
        self._object_of: dict[str, ObjectId] = {}
        self._content: dict[ObjectId, bytes] = {}
        #: Paths whose bytes were reclaimed by pressure (for FileFadedError).
        self._faded: set[str] = set()
        self.faded_count = 0

        previous = self.store.on_eviction

        def on_eviction(record: EvictionRecord, _prev=previous) -> None:
            self._forget(record.obj.object_id, faded=record.reason == "preempted")
            if _prev is not None:
                _prev(record)

        self.store.on_eviction = on_eviction

    # -- write path ---------------------------------------------------------

    def write(
        self,
        path: str,
        data: bytes,
        now: float,
        *,
        lifetime: ImportanceFunction | None = None,
    ) -> FileStat:
        """Create or replace a file.

        Without an explicit ``lifetime`` the default-annotation policy
        picks one from the path.  Replacement is write-once underneath: a
        new object is stored and the old one removed (never mutated).
        Raises :class:`StorageFullError` when the volume is full for this
        annotation's importance.
        """
        norm = normalize_path(path)
        if not isinstance(data, bytes):
            raise PathError(f"file data must be bytes, got {type(data).__name__}")
        if not data:
            raise PathError("empty files are not storable (size must be positive)")
        annotation = lifetime if lifetime is not None else self.defaults.lifetime_for(norm)

        obj = StoredObject(
            size=len(data), t_arrival=now, lifetime=annotation, creator="fs",
            metadata={"path": norm},
        )
        # Replacing? Remove the old version only after the new admission
        # plan is known to succeed — peek first so a refused write leaves
        # the previous version intact.
        existing = self._object_of.get(norm)
        plan = self.store.peek_admission(obj, now)
        if not plan.admit and existing is not None:
            # Retry the plan assuming the old version's bytes are freed;
            # if even that fails, restore the old version untouched.
            old_obj = self.store.get(existing)
            old_data = self._content[existing]
            self.store.remove(existing, now, reason="replace")
            result = self.store.offer(obj, now)
            if not result.admitted:
                rollback = self.store.offer(old_obj, now)
                if not rollback.admitted:  # pragma: no cover - bytes just freed
                    raise CapacityError(
                        f"failed to restore {norm!r} after a refused overwrite"
                    )
                self._path_of[old_obj.object_id] = norm
                self._object_of[norm] = old_obj.object_id
                self._content[old_obj.object_id] = old_data
                self._faded.discard(norm)
                raise StorageFullError(
                    f"volume full for {norm!r} at importance "
                    f"{annotation.initial_importance:.2f}",
                    blocking_importance=result.plan.blocking_importance,
                )
        else:
            if not plan.admit:
                raise StorageFullError(
                    f"volume full for {norm!r} at importance "
                    f"{annotation.initial_importance:.2f}",
                    blocking_importance=plan.blocking_importance,
                )
            if existing is not None:
                self.store.remove(existing, now, reason="replace")
            result = self.store.offer(obj, now)
            if not result.admitted:  # pragma: no cover - peek/commit agree
                raise CapacityError(f"write of {norm!r} failed after planning")

        self._path_of[obj.object_id] = norm
        self._object_of[norm] = obj.object_id
        self._content[obj.object_id] = data
        self._faded.discard(norm)
        return self.stat(norm, now)

    # -- read path ------------------------------------------------------------

    def read(self, path: str, now: float) -> bytes:
        """Return a file's bytes; faded files raise :class:`FileFadedError`."""
        norm = normalize_path(path)
        object_id = self._object_of.get(norm)
        if object_id is None:
            if norm in self._faded:
                raise FileFadedError(
                    f"{norm} was reclaimed by storage pressure"
                )
            raise FileNotFoundError(norm)
        self.store.touch(object_id, now)
        return self._content[object_id]

    def exists(self, path: str) -> bool:
        """True when the file's bytes are currently resident."""
        return normalize_path(path) in self._object_of

    def stat(self, path: str, now: float) -> FileStat:
        """Metadata, including current importance and expiry."""
        norm = normalize_path(path)
        object_id = self._object_of.get(norm)
        if object_id is None:
            if norm in self._faded:
                raise FileFadedError(f"{norm} was reclaimed by storage pressure")
            raise FileNotFoundError(norm)
        obj = self.store.get(object_id)
        return FileStat(
            path=norm,
            size=obj.size,
            created_at=obj.t_arrival,
            importance=obj.importance_at(now),
            expires_at=obj.t_expire_abs,
            annotation=obj.lifetime,
        )

    def listdir(self, directory: str = "/") -> list[str]:
        """Paths of resident files under ``directory`` (recursive, sorted)."""
        if directory != "/":
            directory = normalize_path(directory)
        return sorted(
            path for path in self._object_of if is_within(path, directory)
        )

    def faded(self) -> list[str]:
        """Paths whose bytes faded under pressure (not explicitly removed)."""
        return sorted(self._faded)

    # -- management ------------------------------------------------------------

    def remove(self, path: str, now: float) -> None:
        """Explicitly delete a file (traditional semantics still work)."""
        norm = normalize_path(path)
        object_id = self._object_of.get(norm)
        if object_id is None:
            raise FileNotFoundError(norm)
        self.store.remove(object_id, now, reason="manual")
        self._faded.discard(norm)

    def set_lifetime(
        self, path: str, lifetime: ImportanceFunction, now: float
    ) -> FileStat:
        """Re-annotate a resident file (the paper's active intervention)."""
        norm = normalize_path(path)
        object_id = self._object_of.get(norm)
        if object_id is None:
            raise FileNotFoundError(norm)
        data = self._content[object_id]
        replacement = reannotate(self.store, object_id, lifetime, now)
        # Reannotation preserves the object id; refresh bookkeeping.
        self._content[replacement.object_id] = data
        self._path_of[replacement.object_id] = norm
        self._object_of[norm] = replacement.object_id
        self._faded.discard(norm)
        return self.stat(norm, now)

    def density(self, now: float) -> float:
        """The volume's storage importance density."""
        return importance_density(self.store, now)

    def advise(
        self, size_bytes: int, persist_days: float, wane_days: float, now: float
    ) -> Advice:
        """Annotation advice for a prospective write (see the advisor)."""
        return AnnotationAdvisor(self.store).advise(
            size_bytes, persist_days, wane_days, now
        )

    def files(self) -> Iterator[str]:
        """Iterate resident file paths."""
        return iter(sorted(self._object_of))

    def __contains__(self, path: str) -> bool:
        return self.exists(path)

    def __len__(self) -> int:
        return len(self._object_of)

    # -- internals ----------------------------------------------------------

    def _forget(self, object_id: ObjectId, *, faded: bool) -> None:
        path = self._path_of.pop(object_id, None)
        self._content.pop(object_id, None)
        if path is not None and self._object_of.get(path) == object_id:
            del self._object_of[path]
            if faded:
                self._faded.add(path)
                self.faded_count += 1

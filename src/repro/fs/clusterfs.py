"""The temporal filesystem over a Besteffs cluster (paper §6, §4.1).

:class:`ClusterFS` gives the same write / read / stat / listdir verbs as
:class:`~repro.fs.filesystem.TemporalFS`, but files live on a fully
distributed :class:`~repro.besteffs.cluster.BesteffsCluster`: writes run
the ``x``-sample / ``m``-try placement rule, reads locate the holding
desktop, and a desktop departing the cluster takes its files with it
(they surface as faded, like pressure victims — the single-copy model).

File *names* are metadata kept by the mounting client (there is no
central directory service in Besteffs; a deployment would gossip or shard
this map, which is orthogonal to what the prototype demonstrates).
"""

from __future__ import annotations

from typing import Iterator

from repro.besteffs.cluster import BesteffsCluster
from repro.core.importance import ImportanceFunction
from repro.core.obj import ObjectId, StoredObject
from repro.core.store import EvictionRecord
from repro.errors import StorageFullError
from repro.fs.filesystem import FileFadedError, FileStat
from repro.fs.path import PathError, is_within, normalize_path
from repro.fs.policy import DefaultAnnotationPolicy

__all__ = ["ClusterFS"]


class ClusterFS:
    """Path-keyed prototype filesystem over a Besteffs cluster."""

    def __init__(
        self,
        cluster: BesteffsCluster,
        *,
        policy: DefaultAnnotationPolicy | None = None,
    ) -> None:
        self.cluster = cluster
        self.defaults = policy if policy is not None else DefaultAnnotationPolicy()
        self._object_of: dict[str, ObjectId] = {}
        self._path_of: dict[ObjectId, str] = {}
        self._content: dict[ObjectId, bytes] = {}
        self._faded: set[str] = set()

        # Track reclamations (pressure or node departure) on every node;
        # call :meth:`sync_membership` after churn joins so later nodes
        # are hooked too.
        self._hooked: set[str] = set()
        self.sync_membership()

    def sync_membership(self) -> None:
        """Install eviction hooks on any cluster nodes not yet tracked."""
        for node_id, node in self.cluster.nodes.items():
            if node_id not in self._hooked:
                self._hook_node(node)
                self._hooked.add(node_id)

    def _hook_node(self, node) -> None:
        previous = node.store.on_eviction

        def on_eviction(record: EvictionRecord, _prev=previous) -> None:
            self._forget(record.object_id, reason=record.reason)
            if _prev is not None:
                _prev(record)

        node.store.on_eviction = on_eviction

    # -- write path ---------------------------------------------------------

    def write(
        self,
        path: str,
        data: bytes,
        now: float,
        *,
        lifetime: ImportanceFunction | None = None,
    ) -> FileStat:
        """Create or replace a file somewhere on the cluster."""
        norm = normalize_path(path)
        if not isinstance(data, bytes):
            raise PathError(f"file data must be bytes, got {type(data).__name__}")
        if not data:
            raise PathError("empty files are not storable (size must be positive)")
        annotation = (
            lifetime if lifetime is not None else self.defaults.lifetime_for(norm)
        )
        obj = StoredObject(size=len(data), t_arrival=now, lifetime=annotation, creator="fs")
        decision, _result = self.cluster.offer(obj, now)
        if not decision.placed:
            raise StorageFullError(
                f"cluster full for {norm!r} at importance "
                f"{annotation.initial_importance:.2f}"
            )
        # Replacement: remove the superseded version after the new one is
        # safely placed (write-once underneath, like Besteffs versioning).
        previous = self._object_of.get(norm)
        if previous is not None and previous in self.cluster:
            self.cluster.locate(previous).store.remove(previous, now, reason="replace")
        self._object_of[norm] = obj.object_id
        self._path_of[obj.object_id] = norm
        self._content[obj.object_id] = data
        self._faded.discard(norm)
        return self.stat(norm, now)

    # -- read path ------------------------------------------------------------

    def read(self, path: str, now: float) -> bytes:
        """Fetch a file's bytes from whichever desktop holds them."""
        norm = normalize_path(path)
        object_id = self._object_of.get(norm)
        if object_id is None:
            if norm in self._faded:
                raise FileFadedError(f"{norm} was reclaimed (pressure or departure)")
            raise FileNotFoundError(norm)
        self.cluster.read(object_id, now)
        return self._content[object_id]

    def stat(self, path: str, now: float) -> FileStat:
        """Metadata including current importance and the holding node."""
        norm = normalize_path(path)
        object_id = self._object_of.get(norm)
        if object_id is None:
            if norm in self._faded:
                raise FileFadedError(f"{norm} was reclaimed (pressure or departure)")
            raise FileNotFoundError(norm)
        node = self.cluster.locate(object_id)
        obj = node.store.get(object_id)
        return FileStat(
            path=norm,
            size=obj.size,
            created_at=obj.t_arrival,
            importance=obj.importance_at(now),
            expires_at=obj.t_expire_abs,
            annotation=obj.lifetime,
        )

    def node_of(self, path: str) -> str:
        """Which desktop currently holds a file."""
        norm = normalize_path(path)
        object_id = self._object_of.get(norm)
        if object_id is None:
            raise FileNotFoundError(norm)
        return self.cluster.locate(object_id).node_id

    def exists(self, path: str) -> bool:
        return normalize_path(path) in self._object_of

    def listdir(self, directory: str = "/") -> list[str]:
        if directory != "/":
            directory = normalize_path(directory)
        return sorted(p for p in self._object_of if is_within(p, directory))

    def faded(self) -> list[str]:
        """Paths lost to pressure or node departures."""
        return sorted(self._faded)

    def remove(self, path: str, now: float) -> None:
        norm = normalize_path(path)
        object_id = self._object_of.get(norm)
        if object_id is None:
            raise FileNotFoundError(norm)
        self.cluster.locate(object_id).store.remove(object_id, now, reason="manual")
        self._faded.discard(norm)

    def density(self, now: float) -> float:
        """Cluster-wide storage importance density."""
        return self.cluster.mean_density(now)

    def files(self) -> Iterator[str]:
        return iter(sorted(self._object_of))

    def __contains__(self, path: str) -> bool:
        return self.exists(path)

    def __len__(self) -> int:
        return len(self._object_of)

    # -- internals ----------------------------------------------------------

    def _forget(self, object_id: ObjectId, *, reason: str) -> None:
        path = self._path_of.pop(object_id, None)
        self._content.pop(object_id, None)
        if path is not None and self._object_of.get(path) == object_id:
            del self._object_of[path]
            if reason in ("preempted", "node-departure"):
                self._faded.add(path)

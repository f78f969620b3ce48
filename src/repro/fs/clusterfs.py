"""The temporal filesystem over a Besteffs cluster (paper §6, §4.1).

:class:`ClusterFS` gives the same write / read / stat / listdir verbs as
:class:`~repro.fs.filesystem.TemporalFS`, but files live on a fully
distributed :class:`~repro.besteffs.cluster.BesteffsCluster`: writes run
the ``x``-sample / ``m``-try placement rule, reads locate the holding
desktop, and a desktop departing the cluster takes its files with it
(they surface as faded, like pressure victims — the single-copy model).
It subscribes to the cluster's eviction records, so nodes that join
later are tracked too.

File *names* are metadata kept by the mounting client (there is no
central directory service in Besteffs; a deployment would gossip or shard
this map, which is orthogonal to what the prototype demonstrates).
"""

from __future__ import annotations

from repro.besteffs.cluster import BesteffsCluster
from repro.core.importance import ImportanceFunction
from repro.core.obj import ObjectId
from repro.core.store import StorageUnit
from repro.errors import StorageFullError
from repro.fs.filesystem import FileStat, _Namespace
from repro.fs.path import normalize_path
from repro.fs.policy import DefaultAnnotationPolicy

__all__ = ["ClusterFS"]


class ClusterFS(_Namespace):
    """Path-keyed prototype filesystem over a Besteffs cluster."""

    _FADED_BECAUSE = "reclaimed (pressure or departure)"

    def __init__(
        self,
        cluster: BesteffsCluster,
        *,
        policy: DefaultAnnotationPolicy | None = None,
    ) -> None:
        super().__init__(policy)
        self.cluster = cluster
        # Pressure victims and node departures, on every member, joiners
        # included.
        self._subscribe(cluster)

    def _unit_of(self, object_id: ObjectId) -> StorageUnit:
        return self.cluster.locate(object_id).store

    def write(
        self,
        path: str,
        data: bytes,
        now: float,
        *,
        lifetime: ImportanceFunction | None = None,
    ) -> FileStat:
        """Create or replace a file somewhere on the cluster."""
        norm, obj = self._new_object(path, data, now, lifetime)
        decision, _result = self.cluster.offer(obj, now)
        if not decision.placed:
            raise StorageFullError(
                f"cluster full for {norm!r} at importance "
                f"{obj.lifetime.initial_importance:.2f}"
            )
        # Replacement: remove the superseded version after the new one is
        # safely placed (write-once underneath, like Besteffs versioning).
        previous = self._object_of.get(norm)
        if previous is not None and previous in self.cluster:
            self._unit_of(previous).remove(previous, now, reason="replace")
        self._remember(norm, obj.object_id, data)
        return self.stat(norm, now)

    def node_of(self, path: str) -> str:
        """Which desktop currently holds a file."""
        return self.cluster.locate(self._resident(normalize_path(path))).node_id

    def density(self, now: float) -> float:
        """Cluster-wide storage importance density."""
        return self.cluster.mean_density(now)

"""Decision provenance ledger (audit trail) for reclamation decisions.

Aggregate metrics say *how many* objects were rejected; the audit ledger
says *why object X specifically* was rejected or evicted at time *t*.
Every admit / reject / evict / expire / refresh decision is captured as
an :class:`AuditRecord` carrying the context the store saw when it
decided: the object's current importance, the threshold it was compared
against, occupancy at decision time, the competing victims and — for
Besteffs runs — the node that made the call.

Design constraints, in order:

1. **Determinism.**  Records carry simulation time only (never
   wall-clock), sampling is a pure function of the object id, and merges
   preserve submission order — so a ``--jobs 4`` sweep produces the same
   merged ledger, byte for byte, as ``--jobs 1``.
2. **Bounded overhead.**  The ledger is a ring buffer
   (``max_records``) with per-object sampling (``sample``): at 50k+
   residents you keep the ledger on at e.g. ``sample=0.05`` and still get
   *complete* timelines for every sampled object, because sampling is
   all-or-nothing per object id (a kept object keeps its admit, its
   refreshes and its eventual eviction).
3. **Laziness.**  This module is imported only when auditing is
   requested; a run with observability off never loads it (see the
   overhead-guard test).

The JSONL on-disk form mirrors :mod:`repro.obs.log`: one
``json.dumps(..., sort_keys=True)`` object per line, no timestamps, no
randomness.
"""

from __future__ import annotations

import json
import zlib
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from typing import IO, Iterable, Iterator, Mapping

from repro.core.obj import StoredObject

__all__ = [
    "ACTIONS",
    "AuditRecord",
    "AuditLedger",
    "DEFAULT_MAX_RECORDS",
]

#: The decision vocabulary; anything else is rejected at record time.
ACTIONS = ("admit", "reject", "evict", "expire", "refresh")

#: Default ring-buffer bound — generous for experiment-scale runs while
#: capping a mega-university sweep at tens of MB of JSONL per worker.
DEFAULT_MAX_RECORDS = 250_000

#: Sampling hash resolution; crc32(id) % _SAMPLE_MOD < rate * _SAMPLE_MOD.
_SAMPLE_MOD = 1_000_000


@dataclass(frozen=True)
class AuditRecord:
    """One reclamation decision about one object.

    Attributes
    ----------
    seq:
        Position in the ledger (assigned by :meth:`AuditLedger.record`,
        re-assigned on merge so merged ledgers stay contiguous).
    t:
        Simulation time (minutes) of the decision.
    action:
        One of :data:`ACTIONS`.
    object_id / unit:
        The object decided about and the storage unit (== Besteffs node
        id) that decided.  ``unit`` is ``"cluster"`` for cluster-level
        rejections where no single node made the call.
    importance:
        The object's importance *at decision time* — for an eviction
        this is ``importance_at_eviction``, for an admit/reject it is
        the incoming object's competing importance.
    threshold:
        The importance level the decision was compared against: the
        blocking importance on a reject, the highest preempted
        importance on an admit-with-victims, the preemptor's incoming
        importance on an evict.  ``None`` when no comparison happened
        (free-space admits, expiry sweeps).
    occupancy:
        Fraction of raw capacity occupied when the decision was planned
        (pressure at decision time, before any victims left).
    reason:
        The plan/eviction reason string (``"free-space"``,
        ``"full-for-importance"``, ``"preempted"``, ...).
    size / t_arrival / t_expire:
        The object's annotation context (``t_expire`` is the absolute
        expiry time, ``t_arrival + lifetime.t_expire``), so ``repro
        explain`` can reconstruct the L(t) trajectory without the
        original workload.
    competing:
        Victim object ids displaced by an admit (empty otherwise).
    preempted_by:
        For evictions: the object id that displaced this one.
    """

    seq: int
    t: float
    action: str
    object_id: str
    unit: str
    importance: float
    threshold: float | None = None
    occupancy: float = 0.0
    reason: str = ""
    size: int = 0
    t_arrival: float = 0.0
    t_expire: float = 0.0
    competing: tuple[str, ...] = ()
    preempted_by: str | None = None

    def to_dict(self) -> dict:
        """JSON-friendly form (tuples become lists)."""
        payload = asdict(self)
        payload["competing"] = list(self.competing)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "AuditRecord":
        data = dict(payload)
        data["competing"] = tuple(data.get("competing", ()))
        return cls(**data)


def _sample_key(object_id: str) -> int:
    """Deterministic per-object hash in ``[0, _SAMPLE_MOD)``."""
    return zlib.crc32(object_id.encode("utf-8")) % _SAMPLE_MOD


@dataclass
class AuditLedger:
    """Sampled, ring-buffered collection of :class:`AuditRecord`.

    Parameters
    ----------
    sample:
        Fraction of *objects* (not records) to keep, in ``(0, 1]``.
        Sampling is all-or-nothing per object id so kept objects have
        complete timelines.
    max_records:
        Ring-buffer bound; once full, the oldest records are dropped
        (counted in :attr:`dropped`).
    """

    sample: float = 1.0
    max_records: int = DEFAULT_MAX_RECORDS
    #: Records dropped by the ring buffer (not by sampling).
    dropped: int = field(default=0, init=False)
    #: Total records accepted (== len(self) + dropped).
    recorded_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.sample <= 1.0:
            raise ValueError(f"sample must be in (0, 1], got {self.sample!r}")
        if self.max_records <= 0:
            raise ValueError(f"max_records must be positive, got {self.max_records!r}")
        self._records: deque[AuditRecord] = deque(maxlen=self.max_records)
        self._threshold = int(self.sample * _SAMPLE_MOD)

    # -- recording ---------------------------------------------------------

    def wants(self, object_id: str) -> bool:
        """Whether decisions about ``object_id`` are kept (pure, stable)."""
        if self.sample >= 1.0:
            return True
        return _sample_key(object_id) < self._threshold

    def record(
        self,
        action: str,
        *,
        t: float,
        obj: StoredObject,
        unit: str,
        importance: float,
        threshold: float | None = None,
        occupancy: float = 0.0,
        reason: str = "",
        competing: tuple[str, ...] = (),
        preempted_by: str | None = None,
    ) -> bool:
        """Append one decision about ``obj``; returns False when sampled out."""
        if action not in ACTIONS:
            raise ValueError(f"unknown audit action {action!r}; expected one of {ACTIONS}")
        if not self.wants(obj.object_id):
            return False
        record = AuditRecord(
            seq=self.recorded_count,
            t=t,
            action=action,
            object_id=obj.object_id,
            unit=unit,
            importance=importance,
            threshold=threshold,
            occupancy=occupancy,
            reason=reason,
            size=obj.size,
            t_arrival=obj.t_arrival,
            t_expire=obj.t_expire_abs,
            competing=competing,
            preempted_by=preempted_by,
        )
        self._append(record)
        return True

    def _append(self, record: AuditRecord) -> None:
        if len(self._records) == self.max_records:
            self.dropped += 1
        self._records.append(record)
        self.recorded_count += 1

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[AuditRecord]:
        return iter(tuple(self._records))

    @property
    def records(self) -> tuple[AuditRecord, ...]:
        """All retained records in decision order."""
        return tuple(self._records)

    def records_for(self, object_id: str) -> tuple[AuditRecord, ...]:
        """The retained timeline of one object, in decision order."""
        return tuple(r for r in self._records if r.object_id == object_id)

    def object_ids(self) -> tuple[str, ...]:
        """Distinct object ids present, ordered by first appearance."""
        seen: dict[str, None] = {}
        for record in self._records:
            seen.setdefault(record.object_id, None)
        return tuple(seen)

    # -- merge / IO --------------------------------------------------------

    def merge(self, other: "AuditLedger") -> None:
        """Fold ``other``'s records onto this ledger, in submission order.

        Mirrors :meth:`repro.obs.metrics.MetricsRegistry.merge`: the
        parent process merges worker ledgers one by one in submission
        order, re-sequencing so the merged ledger is identical to one
        ledger fed the concatenated decision stream — ring-buffer
        truncation included, since ``other``'s dropped records were
        accepted (and numbered) before its survivors.
        """
        self.recorded_count += other.dropped
        self.dropped += other.dropped
        for record in other._records:
            self._append(replace(record, seq=self.recorded_count))

    def write_jsonl(self, sink: str | IO[str]) -> int:
        """Write one JSON object per record; returns the record count.

        Lines are ``sort_keys=True`` and carry no wall-clock data, so the
        file is byte-stable across runs and across ``--jobs`` settings.
        """
        lines = [json.dumps(r.to_dict(), sort_keys=True) for r in self._records]
        text = "\n".join(lines) + ("\n" if lines else "")
        if isinstance(sink, str):
            with open(sink, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sink.write(text)
        return len(lines)

    @classmethod
    def read_jsonl(cls, source: str | IO[str] | Iterable[str]) -> "AuditLedger":
        """Rebuild a ledger from a JSONL file, path or line iterable."""
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        else:
            lines = list(source)
        ledger = cls()
        for line in lines:
            line = line.strip()
            if not line:
                continue
            ledger._records.append(AuditRecord.from_dict(json.loads(line)))
        # ``seq`` numbers every accepted record, dropped ones included, so the
        # last one restores the counts the ring buffer (or a merge) left.
        if ledger._records:
            ledger.recorded_count = ledger._records[-1].seq + 1
        ledger.dropped = ledger.recorded_count - len(ledger._records)
        return ledger

"""The request/response JSONL ledger of a serving run.

Every request the service answers — admitted, rejected, shed or expired —
appends one entry: a flat tuple of the scalars its ledger line is made of
(:data:`ENTRY_FIELDS`).  Recording keeps no reference to the request or
the response, a shard worker ships its entries to the parent as they are,
and JSON exists only when bytes are asked for.

The bytes follow the trace archive's canonical discipline
(:mod:`repro.obs.traceexport`): one sorted-key JSON object per line,
entries ordered by submission sequence, **simulation-time fields only**.
Wall-clock latencies live in the obs histograms and the loadgen report,
never here — so a seeded closed-loop run writes a byte-identical ledger on
every invocation (the determinism pin in
``tests/serve/test_determinism.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import pairwise
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

from repro.serve.protocol import StoreRequest, StoreResponse

__all__ = ["ENTRY_FIELDS", "ServeLedger", "entry_dict", "merge_entries"]

_FORMAT = "repro-serve-ledger/1"

#: Columns of an entry tuple: the run's coordinates, then the request's
#: scalars, then the response's.
ENTRY_FIELDS = (
    "seq", "t_submit", "t_decided",
    "creator", "deadline", "object_id", "principal", "request_id", "size", "t_arrival",
    "cost_charged", "detail", "node_id", "retry_after", "status",
)

#: The one encoder of ledger lines.  Every dict it is handed is a literal
#: written in sorted key order (:func:`entry_dict`, the header line),
#: so its output is byte-equal to ``json.dumps(..., sort_keys=True)`` with
#: no per-line sort and no per-line ``JSONEncoder``.
_encode = json.JSONEncoder().encode

_seq = itemgetter(0)


def entry_dict(entry: tuple) -> dict[str, object]:
    """The ledger line of one entry tuple, as the nested object it encodes.

    This literal is the only spelling of a line's key names and order.
    """
    (
        seq, t_submit, t_decided,
        creator, deadline, object_id, principal, request_id, size, t_arrival,
        cost_charged, detail, node_id, retry_after, status,
    ) = entry
    return {  # keys in sorted order at both levels: see ``_encode``
        "request": {
            "creator": creator,
            "deadline": deadline,
            "object_id": object_id,
            "principal": principal,
            "request_id": request_id,
            "size": size,
            "t_arrival": t_arrival,
        },
        "response": {
            "cost_charged": cost_charged,
            "detail": detail,
            "node_id": node_id,
            "request_id": request_id,
            "retry_after": retry_after,
            "status": status,
        },
        "seq": seq,
        "t_decided": t_decided,
        "t_submit": t_submit,
    }


@dataclass
class ServeLedger:
    """Every request/response pair of one run, or of several merged.

    A service appends to its own ledger; :func:`merge_entries` folds the
    entries of any number of shards into one ledger of the same class.
    Iterating yields the entry tuples in submission order.  (The bench
    harness probes a ledger with ``hasattr(ledger, "entries")`` and then
    expects typed objects, so no attribute here may take that name.)
    """

    _entries: list[tuple] = field(default_factory=list)

    def record(
        self,
        request: StoreRequest,
        response: StoreResponse,
        *,
        t_submit: float,
        t_decided: float,
        seq: int | None = None,
    ) -> tuple:
        """Append one pair, flattened; ``seq`` is the submission sequence number.

        When omitted it defaults to the append position, which is only
        correct for callers that record strictly in submission order (the
        service passes its own submit counter, since shed responses are
        recorded immediately while queued ones wait for their batch).  A
        response answers the request it is recorded with: the line carries
        the request's id on both sides.
        """
        obj = request.obj
        entry = (  # grouped as ENTRY_FIELDS is
            len(self._entries) if seq is None else seq, t_submit, t_decided,
            obj.creator, request.deadline, obj.object_id, request.capability.principal,
            request.request_id, obj.size, obj.t_arrival,
            response.cost_charged, response.detail,
            response.decision.node_id if response.decision else None,
            response.retry_after,
            response.status._value_,  # the plain attribute behind ``.value``
        )
        self._entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple]:
        # Entries are appended in decision order, which under batching can
        # interleave; every read is in submission order, so two runs that
        # answered the same requests produce identical bytes.
        return iter(sorted(self._entries, key=_seq))

    @property
    def lines(self) -> list[str]:
        """One canonical JSON line per entry (no newline)."""
        return [_encode(entry_dict(entry)) for entry in self]

    def keyed_lines(self) -> list[tuple[int, str]]:
        """``(seq, canonical JSON line)`` pairs."""
        return [(entry[0], _encode(entry_dict(entry))) for entry in self]

    def entry_dicts(self) -> list[dict]:
        """The nested object of every line, for report post-processing."""
        return [entry_dict(entry) for entry in self]

    def _canonical_chunks(self) -> Iterator[bytes]:
        header = {"entries": len(self._entries), "format": _FORMAT}
        yield f"{_encode(header)}\n".encode("utf-8")
        for entry in self:
            yield f"{_encode(entry_dict(entry))}\n".encode("utf-8")

    def canonical_bytes(self) -> bytes:
        """The run-invariant byte form: header line + one line per entry."""
        return b"".join(self._canonical_chunks())

    def canonical_sha256(self) -> str:
        """sha256 of :meth:`canonical_bytes`, hashed line by line."""
        digest = hashlib.sha256()
        for chunk in self._canonical_chunks():
            digest.update(chunk)
        return digest.hexdigest()

    def write_jsonl(self, path: str | Path) -> Path:
        """Write the canonical JSONL form to ``path`` and return it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(self.canonical_bytes())
        return path


def merge_entries(entries: Iterable[tuple]) -> ServeLedger:
    """Merge the entry tuples of any number of shards into one ledger.

    Sorting by the global sequence number makes the merge independent of
    shard count, shard order and worker scheduling: the same request
    stream produces byte-identical canonical bytes at any ``--jobs``.
    """
    ordered = sorted(entries, key=_seq)
    if any(before[0] == after[0] for before, after in pairwise(ordered)):
        raise ValueError("duplicate ledger sequence numbers across shards")
    return ServeLedger(ordered)


# Second names ``bench/trace.py`` resolves in this module's namespace.
FrozenServeLedger = ServeLedger
merge_ledger_lines = merge_entries

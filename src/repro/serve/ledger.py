"""The request/response JSONL ledger of a serving run.

Every request the service answers — admitted, rejected, shed or expired —
appends one entry pairing the request's canonical form with the
response's.  The ledger follows the trace archive's canonical-bytes
discipline (:mod:`repro.obs.traceexport`): one sorted-key JSON object
per line, entries ordered by submission sequence, **simulation-time
fields only**.  Wall-clock latencies live in
the obs histograms and the loadgen report, never here — so a seeded
closed-loop run writes a byte-identical ledger on every invocation (the
determinism pin in ``tests/serve/test_determinism.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.serve.protocol import StoreRequest, StoreResponse

__all__ = ["ServeLedgerEntry", "ServeLedger", "FrozenServeLedger", "merge_ledger_lines"]

_FORMAT = "repro-serve-ledger/1"

#: The one encoder of ledger lines.  Every dict it is handed is a literal
#: written in sorted key order (``to_dict`` / ``canonical_dict``), so its
#: output is byte-equal to ``json.dumps(..., sort_keys=True)`` with no
#: per-line sort and no per-line ``JSONEncoder``.
_encode = json.JSONEncoder().encode


def _header_line(entries: int) -> str:
    return _encode({"entries": entries, "format": _FORMAT})


@dataclass(frozen=True)
class ServeLedgerEntry:
    """One answered request: submit/decide sim-times plus both halves."""

    seq: int
    t_submit: float
    t_decided: float
    request: StoreRequest
    response: StoreResponse

    def to_dict(self) -> dict[str, object]:
        return {  # keys in sorted order, like both halves: see ``_encode``
            "request": self.request.canonical_dict(),
            "response": self.response.canonical_dict(),
            "seq": self.seq,
            "t_decided": self.t_decided,
            "t_submit": self.t_submit,
        }

    def canonical_line(self) -> str:
        """The entry's ledger line (canonical JSON, no newline)."""
        return _encode(self.to_dict())


@dataclass
class ServeLedger:
    """Append-only record of every request/response pair of one run."""

    _entries: list[ServeLedgerEntry] = field(default_factory=list)

    def record(
        self,
        request: StoreRequest,
        response: StoreResponse,
        *,
        t_submit: float,
        t_decided: float,
        seq: int | None = None,
    ) -> ServeLedgerEntry:
        """Append one pair; ``seq`` is the submission sequence number.

        When omitted it defaults to the append position, which is only
        correct for callers that record strictly in submission order (the
        service passes its own submit counter, since shed responses are
        recorded immediately while queued ones wait for their batch).
        """
        entry = ServeLedgerEntry(
            seq=len(self._entries) if seq is None else seq,
            t_submit=t_submit,
            t_decided=t_decided,
            request=request,
            response=response,
        )
        self._entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[ServeLedgerEntry, ...]:
        return tuple(self._entries)

    def canonical_bytes(self) -> bytes:
        """The run-invariant byte form: header line + one line per entry.

        Entries are sorted by submission sequence (they are appended in
        decision order, which under batching can interleave) so two runs
        that answered the same requests produce identical bytes.
        """
        lines = [_header_line(len(self._entries))]
        lines.extend(line for _seq, line in self.keyed_lines())
        return ("\n".join(lines) + "\n").encode("utf-8")

    def canonical_sha256(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def keyed_lines(self) -> list[tuple[int, str]]:
        """``(seq, canonical JSON line)`` pairs — the picklable transport
        form shard workers ship back for the parent's merge."""
        return [
            (e.seq, e.canonical_line())
            for e in sorted(self._entries, key=lambda e: e.seq)
        ]

    def write_jsonl(self, path: str | Path) -> Path:
        """Write the canonical JSONL form to ``path`` and return it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(self.canonical_bytes())
        return path


@dataclass(frozen=True)
class FrozenServeLedger:
    """A merged, read-only ledger rebuilt from canonical entry lines.

    Sharded serving runs record per-shard :class:`ServeLedger`\\ s whose
    entries carry *global* sequence numbers; the parent merges their
    :meth:`ServeLedger.keyed_lines` back into one run-wide ledger.  Only
    the canonical-bytes surface survives the merge (the typed
    request/response objects stay in the workers), which is exactly what
    reports, hashing and ``write_jsonl`` need.
    """

    lines: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.lines)

    def canonical_bytes(self) -> bytes:
        header = _header_line(len(self.lines))
        return ("\n".join([header, *self.lines]) + "\n").encode("utf-8")

    def canonical_sha256(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def entry_dicts(self) -> list[dict]:
        """Parsed entry objects, for report post-processing."""
        return [json.loads(line) for line in self.lines]

    def write_jsonl(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(self.canonical_bytes())
        return path


def merge_ledger_lines(
    keyed_lines: "list[tuple[int, str]]",
) -> FrozenServeLedger:
    """Merge ``(seq, line)`` pairs from any number of shards into one ledger.

    Sorting by the global sequence number makes the merge independent of
    shard count, shard order and worker scheduling: the same request
    stream produces byte-identical canonical bytes at any ``--jobs``.
    """
    ordered = sorted(keyed_lines, key=lambda pair: pair[0])
    seqs = [seq for seq, _line in ordered]
    if len(set(seqs)) != len(seqs):
        raise ValueError("duplicate ledger sequence numbers across shards")
    return FrozenServeLedger(lines=tuple(line for _seq, line in ordered))


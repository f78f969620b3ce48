"""Durable, mergeable cross-process span export (the trace pipeline).

:class:`~repro.obs.tracing.Tracer` keeps every completed span of one
process as a :class:`~repro.obs.tracing.SpanRecord` carrying the span's
stable id, parent id and the tracer's ``(trace_id, spec, shard)``
context tag; this module makes those records survive the process.
:meth:`Tracer.archive <repro.obs.tracing.Tracer.archive>` cuts them as
one :class:`TraceArchive` — a byte-stable JSONL shard per process — and
:class:`TraceArchive` folds worker shards into one sweep-level trace
deterministically, the same discipline as
:class:`repro.obs.audit.AuditLedger`.

Determinism contract, mirroring the audit ledger:

1. **Span identity is structural.**  ``span_id``/``parent_id``/``seq``
   derive from open/close order inside a deterministic simulation, and
   ``spec``/``shard`` from the :class:`~repro.sim.parallel.RunSpec`
   slug — never from pids, wall-clock or scheduling.  The *structure* of
   a spec's shard is therefore byte-identical at ``--jobs 1`` and
   ``--jobs 4`` (pinned by :meth:`TraceArchive.canonical_bytes`).
2. **Merges are order-free.**  :meth:`TraceArchive.merge` sorts records
   by the total key ``(spec, shard, seq)``, so folding the same shard
   set in any grouping or arrival order yields identical bytes.
3. **Wall-clock is data, not identity.**  ``t_start_us``/``wall_us`` are
   the measurement the flamegraph and critical-path analysis exist for;
   they are the *only* fields excluded from the canonical projection.

The JSONL on-disk form is one ``json.dumps(..., sort_keys=True)`` object
per line: a ``trace-header`` line carrying ``trace_id`` and the shard's
``dropped_spans`` count, then one ``span`` line per record.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Sequence

from repro.obs.tracing import SpanRecord

__all__ = ["TraceArchive", "is_trace_file", "trace_id_for"]


def trace_id_for(slugs: Sequence[str], *, salt: str = "") -> str:
    """Deterministic trace id of one sweep: a hash of its spec slugs.

    Independent of job count, scheduling and wall-clock, so every worker
    of a sweep — and a re-run of the same sweep — tags spans with the
    same id.
    """
    ident = "|".join(sorted(slugs)) + "|" + salt
    return hashlib.sha256(ident.encode("utf-8")).hexdigest()[:16]


@dataclass
class TraceArchive:
    """A set of span records from one or many shards, merge-closed.

    One worker's shard is an archive; so is the sweep-level fold of
    every worker's shard.  Record order inside a single shard is close
    order; a merged archive is sorted by ``(spec, shard, seq)`` — a
    total key, so the merged artifact depends only on the shard *set*,
    never on arrival order or job count.
    """

    trace_id: str = ""
    dropped_spans: int = 0
    _records: list[SpanRecord] = field(default_factory=list, repr=False)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(tuple(self._records))

    @property
    def records(self) -> tuple[SpanRecord, ...]:
        return tuple(self._records)

    def shards(self) -> tuple[str, ...]:
        """Distinct shard identities present, sorted."""
        return tuple(sorted({r.shard for r in self._records}))

    def specs(self) -> tuple[str, ...]:
        """Distinct spec slugs present, sorted."""
        return tuple(sorted({r.spec for r in self._records}))

    def roots(self) -> tuple[SpanRecord, ...]:
        """Parentless spans (one per shard in a well-formed trace)."""
        return tuple(r for r in self._records if r.parent_id is None)

    def children_of(self, record: SpanRecord) -> tuple[SpanRecord, ...]:
        """Direct children of one span, in close (seq) order."""
        return tuple(
            r
            for r in self._records
            if r.shard == record.shard and r.parent_id == record.span_id
        )

    # -- merge -------------------------------------------------------------

    def merge(self, other: "TraceArchive") -> None:
        """Fold another archive's shards into this one, deterministically.

        The result is re-sorted by ``(spec, shard, seq)``: merging the
        same shard set in any order or grouping produces byte-identical
        archives (the jobs=1 vs jobs=4 guarantee).
        """
        self._records = sorted(
            self._records + list(other._records),
            key=lambda r: (r.spec, r.shard, r.seq),
        )
        self.dropped_spans += other.dropped_spans
        if not self.trace_id:
            self.trace_id = other.trace_id

    @classmethod
    def merged(cls, archives: Iterable["TraceArchive"]) -> "TraceArchive":
        """Fold many shard archives into one sweep-level archive."""
        out = cls()
        for archive in archives:
            out.merge(archive)
        return out

    # -- IO ----------------------------------------------------------------

    def _header(self) -> dict:
        return {
            "kind": "trace-header",
            "schema": 1,
            "trace_id": self.trace_id,
            "dropped_spans": self.dropped_spans,
            "span_count": len(self._records),
        }

    def write_bytes(self) -> bytes:
        """The full JSONL shard as bytes (header + every record)."""
        lines = [json.dumps(self._header(), sort_keys=True)]
        lines.extend(json.dumps(r.to_dict(), sort_keys=True) for r in self._records)
        return ("\n".join(lines) + "\n").encode("utf-8")

    def write_jsonl(self, sink: str | IO[str]) -> int:
        """Write the header plus one JSON object per span; returns count.

        Lines are ``sort_keys=True`` and carry no absolute timestamps;
        the only run-varying bytes are the wall-clock measurement fields
        (compare :meth:`canonical_bytes` for the run-invariant form).
        """
        text = self.write_bytes().decode("utf-8")
        if isinstance(sink, (str, os.PathLike)):
            with open(sink, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sink.write(text)
        return len(self._records)

    @classmethod
    def read_jsonl(cls, source: str | IO[str] | Iterable[str]) -> "TraceArchive":
        """Rebuild an archive from a JSONL shard (path, stream or lines)."""
        if isinstance(source, (str, os.PathLike)):
            with open(source, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        else:
            lines = list(source)
        archive = cls()
        for line in lines:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            if payload.get("kind") == "trace-header":
                archive.trace_id = str(payload.get("trace_id", ""))
                archive.dropped_spans = int(payload.get("dropped_spans", 0))
                continue
            archive._records.append(SpanRecord.from_dict(payload))
        return archive

    def canonical_bytes(self) -> bytes:
        """The structure-only byte projection of this archive.

        Strips the wall-clock measurement fields (``t_start_us`` /
        ``wall_us``); everything left — ids, parents, labels, sim times,
        context tags, drop counts — is a pure function of the spec set,
        so two runs of the same sweep agree byte-for-byte regardless of
        ``--jobs``.
        """
        lines = [json.dumps(self._header(), sort_keys=True)]
        lines.extend(
            json.dumps(r.canonical_dict(), sort_keys=True) for r in self._records
        )
        return ("\n".join(lines) + "\n").encode("utf-8")


def is_trace_file(path: str) -> bool:
    """Whether ``path`` starts with a trace-header line (cheap sniff)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            first = handle.readline().strip()
    except OSError:
        return False
    if not first.startswith("{"):
        return False
    try:
        payload = json.loads(first)
    except json.JSONDecodeError:
        return False
    return payload.get("kind") == "trace-header"

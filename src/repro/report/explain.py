"""Reconstruct one object's lifecycle from an audit ledger.

``repro-sim explain <run-dir> <object-id>`` answers the debugging
question aggregates cannot: *why did the store kill (or keep) this
object?*  The answer is read straight from the decision-provenance
ledger (:mod:`repro.obs.audit`) written by an audited run — the
annotation the object arrived with, the importance trajectory the store
observed at each decision, and the exact threshold comparison that
admitted, rejected or evicted it.  Thresholds are rendered with
``repr`` so the floats shown are bit-for-bit the values the store
compared (a twin-store replay reproduces them exactly).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ReproError
from repro.obs.audit import AuditLedger, AuditRecord
from repro.report.rundir import run_files
from repro.units import MINUTES_PER_DAY

__all__ = [
    "ObjectTimeline",
    "discover_ledger_files",
    "load_run_ledger",
    "explain_object",
    "list_objects",
    "render_timeline",
]


def discover_ledger_files(path: str) -> list[str]:
    """Audit JSONL files under ``path`` (a file, or a run directory).

    A file is taken as given; a directory yields its ``*audit*.jsonl``
    files, or only the ``-merged`` ledger when there is one — the
    per-spec ledgers it was folded from would double-count.
    """
    explicit = os.path.isfile(path)
    found = run_files(
        path,
        ".jsonl",
        lambda file: explicit or "audit" in os.path.basename(file),
        what="audit ledgers (*audit*.jsonl, written by --audit-out)",
    )
    return list(found)


def load_run_ledger(path: str) -> AuditLedger:
    """Load (and fold) every audit ledger of a run into one."""
    files = discover_ledger_files(path)
    ledger = AuditLedger.read_jsonl(files[0])
    for extra in files[1:]:
        ledger.merge(AuditLedger.read_jsonl(extra))
    return ledger


@dataclass(frozen=True)
class ObjectTimeline:
    """One object's decisions, in decision order."""

    object_id: str
    records: tuple[AuditRecord, ...]

    @property
    def first(self) -> AuditRecord:
        return self.records[0]

    @property
    def final(self) -> AuditRecord:
        return self.records[-1]

    @property
    def outcome(self) -> str:
        """The decision that killed or saved the object.

        ``evict``/``expire``/``reject`` are terminal; an object whose
        last record is an ``admit``/``refresh`` was still resident when
        the ledger closed.
        """
        action = self.final.action
        if action in ("evict", "expire", "reject"):
            return action
        return "resident"


def timeline_for(ledger: AuditLedger, object_id: str) -> ObjectTimeline:
    """The object's timeline; raises :class:`ReproError` when absent."""
    records = ledger.records_for(object_id)
    if not records:
        raise ReproError(
            f"object {object_id!r} has no audit records "
            "(wrong id, sampled out, or evicted past the ring buffer)"
        )
    return ObjectTimeline(object_id=object_id, records=records)


def _fmt_t(minutes: float) -> str:
    return f"t={minutes:g}min ({minutes / MINUTES_PER_DAY:.2f}d)"


def _comparison(record: AuditRecord) -> str:
    """The threshold comparison as the store made it, floats via repr."""
    if record.action == "admit":
        if record.threshold is None:
            return f"L(t)={record.importance!r} (no competition: {record.reason})"
        return (
            f"L(t)={record.importance!r} > highest-preempted={record.threshold!r} "
            f"-> won ({record.reason})"
        )
    if record.action == "reject":
        if record.threshold is None:
            return f"L(t)={record.importance!r} ({record.reason})"
        return (
            f"L(t)={record.importance!r} <= blocking={record.threshold!r} "
            f"-> lost ({record.reason})"
        )
    if record.action == "evict":
        if record.threshold is None:
            return f"L(t)={record.importance!r} ({record.reason})"
        return (
            f"L(t)={record.importance!r} < incoming={record.threshold!r} "
            f"-> preempted by {record.preempted_by}"
        )
    if record.action == "expire":
        return f"L(t)={record.importance!r} (annotation expired)"
    return f"L(t)={record.importance!r} ({record.reason})"


def render_timeline(timeline: ObjectTimeline) -> str:
    """Human-readable explanation of one object's lifecycle."""
    first = timeline.first
    lines = [
        f"object {timeline.object_id}",
        f"  size: {first.size} bytes",
        (
            f"  annotation: arrived {_fmt_t(first.t_arrival)}, "
            f"expires {_fmt_t(first.t_expire)} "
            f"(requested lifetime {(first.t_expire - first.t_arrival) / MINUTES_PER_DAY:.2f}d)"
        ),
        f"  outcome: {timeline.outcome}",
        "  timeline:",
    ]
    for record in timeline.records:
        line = (
            f"    {_fmt_t(record.t)}  {record.action:<7s} "
            f"unit={record.unit or '-'}  occupancy={record.occupancy:.3f}  "
            f"{_comparison(record)}"
        )
        lines.append(line)
        if record.action == "admit" and record.competing:
            lines.append(
                "             displaced: " + ", ".join(record.competing)
            )
    final = timeline.final
    if timeline.outcome in ("evict", "expire"):
        achieved = final.t - final.t_arrival
        requested = final.t_expire - final.t_arrival
        ratio = achieved / requested if requested > 0 else float("inf")
        lines.append(
            f"  achieved lifetime: {achieved / MINUTES_PER_DAY:.2f}d of "
            f"{requested / MINUTES_PER_DAY:.2f}d requested ({ratio:.0%})"
        )
    return "\n".join(lines)


def explain_object(ledger: AuditLedger, object_id: str) -> str:
    """One-call convenience: timeline lookup + rendering."""
    return render_timeline(timeline_for(ledger, object_id))


def list_objects(ledger: AuditLedger, *, limit: int = 40) -> str:
    """Summarise explainable objects (most-eventful first).

    The listing favours objects whose timelines show an actual threshold
    fight (rejects/evicts sort first), so the ids shown are the
    interesting ones to explain.
    """
    interest = {"reject": 0, "evict": 1, "expire": 2, "refresh": 3, "admit": 4}
    summaries: list[tuple[int, int, str, str]] = []
    for object_id in ledger.object_ids():
        records = ledger.records_for(object_id)
        final = records[-1]
        rank = min(interest.get(r.action, 9) for r in records)
        summaries.append((rank, -len(records), object_id, final.action))
    summaries.sort()
    total = len(summaries)
    lines = [f"{total} objects with audit records" + (f" (showing {limit})" if total > limit else "")]
    for _rank, neg_count, object_id, final_action in summaries[:limit]:
        lines.append(f"  {object_id}  ({-neg_count} records, final: {final_action})")
    return "\n".join(lines)

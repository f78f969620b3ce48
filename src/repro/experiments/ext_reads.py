"""Extension experiment — read availability under pressure.

The paper's metrics are producer-side (lifetimes achieved, rejections);
this experiment asks the consumer-side question: *when a student clicks a
lecture, are its bytes still there?*  One semester of captures is stored
onto a deliberately undersized disk under three policies, read requests
follow the Figure 8 popularity model (recency-weighted, with pre-exam
review of the whole back-catalogue), and we measure the **hit rate** and
*why* misses happen:

* the temporal policy under the **Table 1 annotation** (flat importance
  until the end of the semester) keeps everything it stored and, when
  truly full, refuses *new* captures — recent-lecture reads miss.  This
  is a real limitation finding: annotations that do not discriminate
  within the contention window cannot steer reclamation;
* Palimpsest/FIFO always accepts but silently sweeps the *oldest*
  lectures (misses concentrated in the exam-review tail);
* LRU keeps what is being watched, at the cost of tracking every access;
* the temporal policy with a **recency-waning annotation** (full
  importance for two weeks after capture, then waning) recovers FIFO-level
  availability *while keeping producer control* — the fix the paper's own
  framework prescribes: express the demand shape in the annotation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.importance import TwoStepImportance
from repro.core.policies.lru import LRUPolicy
from repro.core.policies.palimpsest import PalimpsestPolicy
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.policy import EvictionPolicy
from repro.core.obj import StoredObject
from repro.core.store import StorageUnit
from repro.report.table import TextTable
from repro.sim.workload.calendar import university_lifetime_for_day
from repro.sim.workload.downloads import DownloadTraceConfig
from repro.sim.workload.lecture import LectureConfig
from repro.sim.workload.readers import build_read_schedule
from repro.units import MINUTES_PER_DAY, days, gib
from repro.sim.parallel import RunSpec

__all__ = ["ReadAvailabilityResult", "execute", "render", "CSV_HEADERS", "csv_rows"]

def _table1_annotation(t: float):
    """The paper's lecture annotation: flat until the end of the term."""
    return university_lifetime_for_day(t)


def _recency_annotation(_t: float):
    """Recency-shaped annotation: two hot weeks, then a semester-long wane."""
    return TwoStepImportance(p=1.0, t_persist=days(14), t_wane=days(90))


#: name -> (policy factory, annotation function of capture time)
VARIANTS: dict[str, tuple[type[EvictionPolicy], object]] = {
    "temporal/table1": (TemporalImportancePolicy, _table1_annotation),
    "temporal/recency": (TemporalImportancePolicy, _recency_annotation),
    "palimpsest": (PalimpsestPolicy, _table1_annotation),
    "lru": (LRUPolicy, _table1_annotation),
}


@dataclass(frozen=True)
class ReadAvailabilityResult:
    """Per-policy read-availability outcomes."""

    capacity_gib: float
    lectures: int
    requests: int
    #: per policy: hits, misses_never_stored, misses_evicted, hit_rate
    per_policy: dict[str, dict[str, float]]


def _run(
    *,
    capacity_gib: float = 10.0,
    seed: int = 42,
    trace: DownloadTraceConfig | None = None,
) -> ReadAvailabilityResult:
    """One semester of captures + reads against an undersized disk."""
    cfg = trace or DownloadTraceConfig()
    lecture_cfg = LectureConfig()
    release_days = [
        day
        for day in range(cfg.term_begin_day, cfg.term_end_day)
        if day % 7 in lecture_cfg.weekday_pattern
    ]
    reads = build_read_schedule(release_days, config=cfg, seed=seed)

    per_policy: dict[str, dict[str, float]] = {}
    for name, (policy_type, annotation_fn) in VARIANTS.items():
        store = StorageUnit(
            gib(capacity_gib), policy_type(),
            name=f"reads-{name.replace('/', '-')}", keep_history=False,
        )
        stored_ids: dict[int, str] = {}
        read_iter = iter(reads)
        pending = next(read_iter, None)
        hits = miss_never = miss_evicted = 0

        def consume_reads(up_to: float):
            nonlocal pending, hits, miss_never, miss_evicted
            while pending is not None and pending.t <= up_to:
                object_id = stored_ids.get(pending.lecture_index)
                if object_id is None:
                    miss_never += 1
                elif object_id in store:
                    store.touch(object_id, pending.t)
                    hits += 1
                else:
                    miss_evicted += 1
                pending = next(read_iter, None)

        for index, day in enumerate(release_days):
            t = float(day * MINUTES_PER_DAY + lecture_cfg.capture_hour * 60)
            consume_reads(t)
            obj = StoredObject(
                size=lecture_cfg.university_object_bytes,
                t_arrival=t,
                lifetime=annotation_fn(t),
                object_id=f"{name}-lec-{index:03d}",
                creator="university",
            )
            if store.offer(obj, t).admitted:
                stored_ids[index] = obj.object_id
        consume_reads(float("inf"))

        total = hits + miss_never + miss_evicted
        per_policy[name] = {
            "hits": float(hits),
            "misses_never_stored": float(miss_never),
            "misses_evicted": float(miss_evicted),
            "hit_rate": hits / total if total else 0.0,
        }
    return ReadAvailabilityResult(
        capacity_gib=capacity_gib,
        lectures=len(release_days),
        requests=len(reads),
        per_policy=per_policy,
    )


def render(result: ReadAvailabilityResult) -> str:
    """Printable per-policy availability table."""
    table = TextTable(
        ["policy", "hit rate", "hits", "missed (never stored)", "missed (evicted)"],
        title=(
            f"Read availability: {result.lectures} lectures on a "
            f"{result.capacity_gib:g} GiB disk, {result.requests} read requests"
        ),
    )
    for name, stats in result.per_policy.items():
        table.add_row(
            [
                name,
                round(stats["hit_rate"], 4),
                int(stats["hits"]),
                int(stats["misses_never_stored"]),
                int(stats["misses_evicted"]),
            ]
        )
    return table.render()


CSV_HEADERS = ("variant", "hit_rate", "hits", "missed_never_stored", "missed_evicted")


def csv_rows(result: ReadAvailabilityResult) -> list[tuple]:
    """One row per policy variant."""
    return [
        (name, stats["hit_rate"], stats["hits"], stats["misses_never_stored"],
         stats["misses_evicted"])
        for name, stats in result.per_policy.items()
    ]


def execute(spec: RunSpec) -> ReadAvailabilityResult:
    """Run this experiment from a :class:`RunSpec` (the stable entry point)."""
    return _run(**spec.call_kwargs(horizon=False))

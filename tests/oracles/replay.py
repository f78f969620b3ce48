"""The replay fold: a recorded run's history rebuilds its stores.

Every unit attached to a :class:`~repro.sim.recorder.Recorder` logs each
offer's verdict and each eviction into it, and a cluster logs the offers
it refuses before any unit sees them.  So folding the admitted arrivals per
``(unit, object_id, size)`` and taking away the evictions must leave
exactly the attached units' residents at the end of the run, with no
eviction left over that no admission explains.  :func:`check_replay`
asserts that; :func:`recorders_made` collects the recorders a run builds
internally, so a test can fold them once the run returns.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.core.store import History, StorageUnit
from repro.sim.recorder import Recorder

__all__ = ["check_recorders", "check_replay", "fold", "recorders_made"]


def fold(history: History) -> Counter:
    """Admitted arrivals minus evictions, per ``(unit, object_id, size)``."""
    arrivals, evictions = history.arrivals, history.evictions
    held = Counter(
        key
        for key, admitted in zip(
            zip(arrivals.column("unit"), arrivals.column("object_id"), arrivals.column("size")),
            arrivals.column("admitted"),
        )
        if admitted
    )
    held.subtract(
        zip(evictions.column("unit"), evictions.column("object_id"), evictions.column("size"))
    )
    return held


def check_replay(history: History, units: Iterable[StorageUnit]) -> None:
    """Assert that ``history`` folds to exactly the residents of ``units``."""
    held = fold(history)
    unmatched = sorted(key for key, count in held.items() if count < 0)
    assert not unmatched, f"{len(unmatched)} evictions match no admission, e.g. {unmatched[0]}"
    residents = Counter(
        (unit.name, obj.object_id, obj.size) for unit in units for obj in unit.iter_residents()
    )
    replayed = +held
    missing, extra = residents - replayed, replayed - residents
    assert not missing and not extra, (
        f"the fold misses {len(missing)} residents (e.g. {min(missing, default=None)}) "
        f"and keeps {len(extra)} departed objects (e.g. {min(extra, default=None)})"
    )


def check_recorders(recorders: list[Recorder]) -> None:
    """Fold every recorder against the units attached to it."""
    assert recorders, "the run built no recorder"
    for recorder in recorders:
        assert recorder.units, "a recorder with no attached unit"
        check_replay(recorder, recorder.units)


@contextmanager
def recorders_made() -> Iterator[list[Recorder]]:
    """Every :class:`Recorder` constructed inside the block, in order."""
    made: list[Recorder] = []
    init = Recorder.__init__

    def tracking(self: Recorder) -> None:
        init(self)
        made.append(self)

    Recorder.__init__ = tracking
    try:
        yield made
    finally:
        Recorder.__init__ = init

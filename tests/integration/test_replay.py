"""A recorded run's history rebuilds its stores (``tests/oracles/replay``).

The §5.3 cluster logs every placed offer through the unit that took it,
every refusal itself and every eviction through the unit it left, so the
fold of its recorder gives each node's exact residents.
"""

import dataclasses

import pytest

from repro.core.store import EvictionRecord, History
from repro.experiments import sec53_university
from repro.sim.parallel import RunSpec
from tests.oracles.replay import check_recorders, check_replay, recorders_made


@pytest.fixture(scope="module", params=[42, 7])
def sec53_run(request):
    with recorders_made() as recorders:
        result = sec53_university.execute(
            RunSpec(
                "sec53",
                {"scale": 0.02, "node_capacities_gib": (80,)},
                seed=request.param,
                horizon_days=400.0,
            )
        )
    return result, recorders


def test_the_sec53_cluster_replays(sec53_run):
    _result, recorders = sec53_run
    check_recorders(recorders)
    (recorder,) = recorders
    assert len(recorder.units) == 40 and len(recorder.evictions) > 8000


def test_the_summary_counts_the_cluster_refusals(sec53_run):
    result, (recorder,) = sec53_run
    stats = result.stats[80]
    assert stats.rejected > 0 and not recorder.rejections  # refused before any unit
    summary = recorder.summary()
    assert summary["rejected"] == stats.rejected
    assert summary["admitted"] == stats.placed


def test_the_rejection_series_counts_the_cluster_refusals(sec53_run):
    _result, (recorder,) = sec53_run
    series = recorder.rejections_cumulative()
    assert series[-1][1] == recorder.summary()["rejected"]
    times = [t for t, _count in series]
    assert times == sorted(times)


def _fields(record) -> tuple:
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


def _copy(history: History, *, evictions: list[EvictionRecord]) -> History:
    copy = History()
    for record in history.arrivals:
        copy.arrivals.add(*_fields(record))
    for record in evictions:
        copy.evictions.add(*_fields(record))
    return copy


def test_a_corrupted_log_fails_the_fold(sec53_run):
    _result, (recorder,) = sec53_run
    evictions = list(recorder.evictions)
    check_replay(_copy(recorder, evictions=evictions), recorder.units)
    with pytest.raises(AssertionError, match="misses 0 residents .* keeps 1 departed"):
        check_replay(_copy(recorder, evictions=evictions[1:]), recorder.units)
    forged = dataclasses.replace(evictions[0], object_id="never-admitted")
    with pytest.raises(AssertionError, match="1 evictions match no admission"):
        check_replay(_copy(recorder, evictions=[*evictions, forged]), recorder.units)

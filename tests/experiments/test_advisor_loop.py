"""Unit-scale tests for the advisor feedback-loop experiment."""

import pytest

from repro.core.advisor import AnnotationAdvisor
from repro.core.importance import TwoStepImportance
from repro.core.obj import StoredObject
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.errors import SimulationError
from repro.experiments import ext_advisor_loop
from repro.sim.parallel import RunSpec
from repro.sim.runner import run_single_store
from repro.sim.workload.mixer import merge_streams
from repro.units import days, gib
from tests.oracles.replay import check_recorders, recorders_made


class TestAdvisorLoop:
    @pytest.fixture(scope="class")
    def run(self):
        with recorders_made() as recorders:
            result = ext_advisor_loop.execute(
                RunSpec("ext-advisor", {"capacity_gib": 20}, seed=5, horizon_days=100.0)
            )
        return result, recorders

    @pytest.fixture(scope="class")
    def result(self, run):
        return run[0]

    def test_every_recorded_store_replays(self, run):
        check_recorders(run[1])

    def test_all_strategies_scored(self, result):
        assert set(result.per_strategy) == {
            "static-0.4", "static-0.7", "static-1.0", "adaptive"
        }
        for stats in result.per_strategy.values():
            assert 0.0 <= stats["admission_rate"] <= 1.0
            assert stats["offered"] > 0

    def test_static_admission_orders_by_importance(self, result):
        rates = [
            result.per_strategy[f"static-{p}"]["admission_rate"]
            for p in ("0.4", "0.7", "1.0")
        ]
        assert rates == sorted(rates)

    def test_adaptive_beats_timid_and_spends_less_than_paranoid(self, result):
        adaptive = result.per_strategy["adaptive"]
        assert (
            adaptive["admission_rate"]
            > result.per_strategy["static-0.4"]["admission_rate"]
        )
        assert adaptive["mean_importance"] < 1.0

    def test_render(self, result):
        rendered = ext_advisor_loop.render(result)
        assert "feedback loop" in rendered
        assert "adaptive" in rendered


def test_advice_read_ahead_of_the_store_is_refused():
    """The loop as it once ran: ``merge_streams`` pulls the producer's next
    write, and with it the advice, straight after yielding the previous
    one, so the advice read the store six hours ahead of its own clock and
    the background writes in between were offered in its past."""
    store = StorageUnit(gib(20), TemporalImportancePolicy(), name="stale")
    size = gib(0.4)

    def producer():
        for i in range(200):
            t = i * 360.0
            advice = AnnotationAdvisor(store, target_margin=0.1).advise(size, 10.0, 10.0, t)
            yield StoredObject(
                size=size, t_arrival=t, lifetime=advice.annotation or TwoStepImportance(
                    p=1.0, t_persist=days(10), t_wane=days(10)
                ), object_id=f"stale-{i:05d}", creator="producer",
            )

    arrivals = merge_streams([producer(), ext_advisor_loop._background_stream(days(50), 5)])
    with pytest.raises(SimulationError):
        run_single_store(store, arrivals, days(50), density_interval_minutes=None)

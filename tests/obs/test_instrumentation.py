"""Integration tests: instrumentation threaded through the hot layers."""

from repro import obs
from repro.besteffs import walks
from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.node import BesteffsNode
from repro.besteffs.gossip import GossipAverager, sampled_density
from repro.besteffs.placement import PlacementConfig
from repro.core.importance import FixedLifetimeImportance
from repro.core.policies.temporal import TemporalImportancePolicy
from repro.core.store import StorageUnit
from repro.sim.engine import SimulationEngine
from repro.sim.probes import scrape
from repro.sim.recorder import Recorder
from repro.sim.runner import run_single_store
from repro.units import days, gib
from tests.conftest import make_obj

import random


def _fill_store(store: StorageUnit, n: int, now: float = 0.0) -> None:
    for _ in range(n):
        store.offer(make_obj(1.0, t_arrival=now), now)


class TestDisabledIsInert:
    def test_disabled_run_records_nothing(self):
        store = StorageUnit(gib(2), TemporalImportancePolicy())
        engine = SimulationEngine()
        engine.feed([make_obj(1.0)], store.offer)
        engine.every(5.0, lambda t: None, label="probe")
        engine.run(10.0)
        store.reclaim_expired(10.0)
        assert len(obs.STATE.registry) == 0
        assert obs.STATE.tracer.records == ()

    def test_disable_after_enable_stops_collection(self):
        obs.enable()
        store = StorageUnit(gib(4), TemporalImportancePolicy(), name="d0")
        store.offer(make_obj(1.0), 0.0)
        obs.disable()
        store.offer(make_obj(1.0), 0.0)
        counter = obs.STATE.registry.get("store_admissions_total")
        assert counter.value(unit="d0", outcome="admitted") == 1.0


class TestEngineInstrumentation:
    def test_event_counts_by_label_and_callback_timing(self):
        obs.enable()
        engine = SimulationEngine()
        engine.feed([make_obj(1.0, t_arrival=float(i)) for i in range(3)], lambda obj, t: None)
        engine.every(10.0, lambda t: None, start_minutes=1.0, label="probe")
        engine.every(5.0, lambda t: None, start_minutes=2.0, first=True, label="barrier")
        engine.run(10.0)
        reg = obs.STATE.registry
        events = reg.get("engine_events_total")
        assert events.value(label="arrival") == 3.0
        assert events.value(label="probe") == 1.0
        assert events.value(label="barrier") == 2.0
        timing = reg.get("engine_callback_seconds").snapshot(label="arrival")
        assert timing["count"] == 3
        assert timing["sum"] >= 0.0
        assert reg.get("engine_queue_depth") is None
        assert obs.STATE.tracer.stats("engine.run").count == 1


class TestStoreInstrumentation:
    def test_admission_rejection_and_eviction_counters(self):
        obs.enable()
        store = StorageUnit(gib(2), TemporalImportancePolicy(), name="d0")
        _fill_store(store, 2)
        # Equal importance: full for this level -> rejection.
        result = store.offer(make_obj(1.0), 0.0)
        assert not result.admitted
        reg = obs.STATE.registry
        adm = reg.get("store_admissions_total")
        assert adm.value(unit="d0", outcome="admitted") == 2.0
        assert adm.value(unit="d0", outcome="rejected") == 1.0
        # Occupancy is a gauge the clock owner's scrape publishes.
        scrape((store,), 0.0)
        assert reg.get("store_occupancy_ratio").value(unit="d0") == 1.0

    def test_preemption_depth_and_scan_length_on_preempting_offer(self):
        obs.enable()
        low = FixedLifetimeImportance(p=0.2, expire_after=days(30))
        store = StorageUnit(gib(2), TemporalImportancePolicy(), name="d0")
        store.offer(make_obj(1.0, lifetime=low), 0.0)
        store.offer(make_obj(1.0, lifetime=low), 0.0)
        result = store.offer(make_obj(1.5), 0.0)  # importance 1.0 preempts both
        assert result.admitted and len(result.evictions) == 2
        reg = obs.STATE.registry
        depth = reg.get("store_preemption_depth").snapshot(unit="d0")
        assert depth["count"] == 3
        assert depth["max"] == 2.0
        scan = reg.get("store_reclaim_scan_length").snapshot(unit="d0")
        assert scan["count"] == 1
        assert scan["max"] == 2.0  # two residents examined by the planner
        evict = reg.get("store_evictions_total")
        assert evict.value(unit="d0", reason="preempted") == 2.0

    def test_reclaim_expired_observes_scan_length(self):
        # The sweep examines only the residents the importance index already
        # classified as expired.
        obs.enable()
        short = FixedLifetimeImportance(p=1.0, expire_after=10.0)
        store = StorageUnit(gib(4), TemporalImportancePolicy(), name="d0")
        store.offer(make_obj(1.0, lifetime=short), 0.0)
        store.offer(make_obj(1.0), 0.0)
        records = store.reclaim_expired(100.0)
        assert len(records) == 1
        reg = obs.STATE.registry
        scan = reg.get("store_reclaim_scan_length").snapshot(unit="d0")
        assert scan["count"] == 1
        assert scan["max"] == 1.0  # only the expired resident is examined
        assert reg.get("store_evictions_total").value(unit="d0", reason="expired") == 1.0


class TestScrapeGauges:
    def test_a_scrape_publishes_the_unit_gauges(self):
        obs.enable()
        store = StorageUnit(gib(2), TemporalImportancePolicy(), name="d0")
        store.offer(make_obj(1.0), 0.0)
        recorder = Recorder()
        recorder.attach(store)
        recorder.sample_density(0.0)
        reg = obs.STATE.registry
        assert reg.get("store_importance_density") is None  # a probe only samples
        scrape((store,), 0.0)
        assert reg.get("store_importance_density").value(unit="d0") == 0.5
        assert reg.get("store_occupancy_ratio").value(unit="d0") == 0.5

    def test_the_engine_scrapes_the_live_members_of_a_cluster(self):
        obs.enable(timeseries=obs.TimeSeriesCollector(interval_minutes=10.0))
        cluster = BesteffsCluster({f"n{i}": gib(2) for i in range(2)}, seed=1)
        engine = SimulationEngine()
        arrivals = [make_obj(1.0, t_arrival=float(t)) for t in (0, 5, 20)]
        engine.feed(arrivals, cluster.offer, units=cluster.nodes.values())
        engine.run(10.0)
        cluster.adopt_node(BesteffsNode("n2", gib(2)))
        engine.run()
        collector = obs.STATE.timeseries
        # Due at 0 and 20, and once more at the end of each run.
        assert collector.scrape_count == 4
        times = collector.get("store_importance_density{unit=n0}").times
        assert times == [0.0, 10.0, 20.0, 20.0]
        assert collector.get("store_importance_density{unit=n2}").times == [20.0, 20.0]
        occupancy = obs.STATE.registry.get("store_occupancy_ratio")
        assert occupancy.value(unit="n2") == 0.0


class TestRunnerInstrumentation:
    def test_run_single_store_emits_spans_and_logs(self):
        events = []
        obs.enable()
        obs.configure_logging("info", events)
        store = StorageUnit(gib(4), TemporalImportancePolicy(), name="d0")
        arrivals = [make_obj(1.0, t_arrival=float(i)) for i in range(3)]
        run_single_store(store, arrivals, days(1))
        assert obs.STATE.tracer.stats("runner.run_single_store").count == 1
        assert obs.STATE.tracer.stats("engine.run").count == 1
        names = [(r["component"], r["event"]) for r in events]
        assert ("runner", "run-start") in names
        assert ("runner", "run-end") in names
        end = next(r for r in events if r["event"] == "run-end")
        assert end["accepted"] == 3


class TestBesteffsInstrumentation:
    def test_placement_metrics_and_span(self, monkeypatch):
        walked = []
        kernel = walks._walk
        monkeypatch.setattr(walks, "_walk", lambda *args: walked.append(1) or kernel(*args))
        obs.enable()
        cluster = BesteffsCluster({f"n{i}": gib(2) for i in range(8)}, seed=1)
        placed = rejected = rounds = probes = 0
        for i in range(6):
            decision, _result = cluster.offer(make_obj(1.0, t_arrival=0.0), 0.0)
            placed += decision.placed
            rejected += not decision.placed
            rounds += decision.rounds_used
            probes += decision.nodes_probed
            assert decision.reason == "direct"
        reg = obs.STATE.registry
        decisions = reg.get("placement_decisions_total")
        total = sum(decisions.series().values())
        assert total == 6.0
        assert reg.get("placement_rounds_used").snapshot()["count"] == 6
        assert reg.get("placement_nodes_probed").snapshot()["max"] >= 1
        # The walks that ran: a direct store stops its round's walks.
        walks_total = reg.get("overlay_walks_total").value()
        assert walks_total == len(walked) > 0
        assert walks_total < cluster.placement.x * rounds
        assert walks_total == probes  # one walk per probe: no repeated endpoint at seed 1
        attempts = reg.get("overlay_sample_attempts").snapshot()
        assert attempts["count"] == rounds and attempts["sum"] == walks_total
        assert reg.get("overlay_walk_length").snapshot()["count"] > 0
        assert obs.STATE.tracer.stats("besteffs.choose_unit").count == 6

    def test_a_score_probe_is_profiled_like_the_plan_it_replaced(self):
        # One ``store.plan_admission`` observation per probe (plus the
        # winner's plan at commit), one ``placement.round`` per round —
        # the same phases the plan-per-probe loop recorded, from the same
        # code that runs with obs off, observed straight into the
        # ``profile_phase_seconds`` histogram.
        obs.enable()
        cluster = BesteffsCluster(
            {f"n{i}": gib(1) for i in range(6)}, placement=PlacementConfig(x=3, m=2), seed=1
        )
        probes = rounds = placed = 0
        for i in range(12):
            now = days(2 * i)
            decision, _result = cluster.offer(make_obj(1.0, t_arrival=now), now)
            probes += decision.nodes_probed
            rounds += decision.rounds_used
            placed += decision.placed
        assert 0 < placed < 12  # direct stores, preemptions and all-full refusals
        phases = obs.STATE.registry.get("profile_phase_seconds")
        assert phases.snapshot(phase="store.plan_admission")["count"] == probes + placed
        assert phases.snapshot(phase="placement.round")["count"] == rounds

    def test_gossip_metrics(self):
        obs.enable()
        cluster = BesteffsCluster({f"n{i}": gib(1) for i in range(6)}, seed=2)
        averager = GossipAverager(cluster, 0.0, seed=3)
        for _ in range(4):
            averager.round()
        reg = obs.STATE.registry
        assert reg.get("gossip_rounds_total").value() == 4.0
        assert reg.get("gossip_exchanges_total").value() > 0.0
        sampled_density(cluster, 0.0, k=3, rng=random.Random(4))
        assert reg.get("gossip_density_samples_total").value() == 1.0

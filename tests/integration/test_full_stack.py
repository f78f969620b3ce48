"""Full-stack distributed scenario: every subsystem in one story.

A small campus deployment runs for two simulated semesters:

* a Besteffs cluster of desktops with the paper's placement rule;
* an authenticated, fairness-policed gateway in front of it;
* shared documents placed on the cluster directly, outside the gateway;
* desktop churn taking single copies away mid-run;
* decentralised density estimation feeding an annotation advisor.

The test asserts the cross-cutting guarantees that only show up when the
pieces run *together* — index consistency across churn and preemption,
budget conservation across refusals, and the density signal staying
truthful throughout.
"""

import random

import pytest

from repro.besteffs import (
    BesteffsCluster,
    BesteffsGateway,
    CapabilityRealm,
    ChurnManager,
    FairShareLedger,
    GossipAverager,
    PlacementConfig,
    annotation_cost,
    sampled_density,
)
from repro.core.importance import TwoStepImportance
from repro.core.obj import StoredObject
from repro.serve import StoreRequest
from repro.units import days, gib, mib


@pytest.fixture(scope="module")
def campus():
    """Run the combined scenario once; tests inspect the aftermath."""
    cluster = BesteffsCluster(
        {f"desk-{i:02d}": gib(2) for i in range(12)},
        placement=PlacementConfig(x=4, m=2),
        seed=13,
    )
    realm = CapabilityRealm(b"campus-key")
    ledger = FairShareLedger(
        budget_per_period=gib(40) * days(30), period_minutes=days(120)
    )
    gateway = BesteffsGateway(cluster=cluster, realm=realm, ledger=ledger)
    manager = ChurnManager(cluster, overlay_seed=13)

    registrar = realm.mint("registrar", max_initial_importance=1.0)
    student = realm.mint("student", max_initial_importance=0.5)

    lecture_life = TwoStepImportance(p=1.0, t_persist=days(30), t_wane=days(60))
    student_life = TwoStepImportance(p=0.5, t_persist=days(30), t_wane=days(14))
    notes_life = TwoStepImportance(p=1.0, t_persist=days(30), t_wane=days(30))

    outcomes = {"stored": 0, "refused": 0}
    churned_at = []
    departures = 0

    now = 0.0
    for day in range(120):
        now = days(day)
        # Three lectures a week through the gateway.
        if day % 7 in (0, 2, 4):
            obj = StoredObject(
                size=mib(300), t_arrival=now, lifetime=lecture_life,
                object_id=f"lec-{day:03d}", creator="registrar",
            )
            result = gateway.handle(
                StoreRequest(capability=registrar, obj=obj), now=now
            )
            outcomes["stored" if result.stored else "refused"] += 1
            sobj = StoredObject(
                size=mib(120), t_arrival=now, lifetime=student_life,
                object_id=f"stu-{day:03d}", creator="student",
            )
            gateway.handle(StoreRequest(capability=student, obj=sobj), now=now)
        # Shared documents arrive weekly.
        if day % 7 == 1:
            notes = StoredObject(
                size=mib(50), t_arrival=now, lifetime=notes_life, creator="shared"
            )
            cluster.offer(notes, now)
        # Monthly churn: one desktop leaves, one joins bigger.
        if day > 0 and day % 30 == 0:
            victim = sorted(cluster.nodes)[day % len(cluster.nodes)]
            departures += len(list(cluster.nodes[victim].store.iter_residents()))
            manager.leave(victim, now)
            manager.join(f"desk-new-{day}", gib(3), now)
            churned_at.append(day)

    return {
        "cluster": cluster,
        "gateway": gateway,
        "manager": manager,
        "ledger": ledger,
        "realm": realm,
        "now": now,
        "outcomes": outcomes,
    }


class TestFullStack:
    def test_cluster_capacity_invariant(self, campus):
        cluster = campus["cluster"]
        assert cluster.used_bytes <= cluster.capacity_bytes
        for node in cluster.nodes.values():
            assert node.store.used_bytes <= node.store.capacity_bytes

    def test_location_index_survives_churn_and_preemption(self, campus):
        cluster = campus["cluster"]
        resident = {
            obj.object_id
            for node in cluster.nodes.values()
            for obj in node.store.iter_residents()
        }
        indexed = {oid for oid in resident if oid in cluster}
        assert indexed == resident
        for object_id in resident:
            node = cluster.locate(object_id)
            assert object_id in node.store

    def test_churn_happened_and_lost_single_copies(self, campus):
        manager = campus["manager"]
        leaves = [e for e in manager.events if e.kind == "leave"]
        joins = [e for e in manager.events if e.kind == "join"]
        assert len(leaves) == 3 and len(joins) == 3
        assert manager.lost_objects()  # some data walked away

    def test_gateway_budget_accounting_is_consistent(self, campus):
        gateway = campus["gateway"]
        ledger = campus["ledger"]
        now = campus["now"]
        # The registrar's spend equals the cost of its *placed* objects.
        cluster = campus["cluster"]
        placed_cost = sum(
            annotation_cost(obj)
            for node in cluster.nodes.values()
            for obj in node.store.iter_residents()
            if obj.creator == "registrar"
        )
        # Spent >= cost of currently resident objects (evicted ones were
        # legitimately charged too), and every refusal was categorised.
        assert ledger.spent("registrar", now) >= placed_cost * 0.99
        assert sum(gateway.refusals.values()) >= 0

    def test_density_signals_are_consistent(self, campus):
        cluster = campus["cluster"]
        now = campus["now"]
        truth = cluster.mean_density(now)
        assert 0.0 <= truth <= 1.0
        sample = sampled_density(cluster, now, k=8, rng=random.Random(1))
        assert abs(sample - truth) < 0.25
        gossip = GossipAverager(cluster, now, seed=2)
        for _ in range(15):
            gossip.round()
        assert gossip.spread() < 0.02

    def test_student_objects_remain_second_class(self, campus):
        cluster = campus["cluster"]
        by_creator = cluster.stored_bytes_by_creator()
        assert by_creator.get("registrar", 0) > by_creator.get("student", 0)

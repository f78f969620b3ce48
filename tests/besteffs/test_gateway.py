"""Tests for the authenticated, fairness-policed gateway."""

import pytest

from repro.besteffs.auth import CapabilityRealm
from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.fairness import FairShareLedger, annotation_cost
from repro.besteffs.gateway import BesteffsGateway
from repro.besteffs.placement import PlacementConfig
from repro.core.importance import TwoStepImportance
from repro.serve.protocol import StoreRequest
from repro.units import days, gib
from tests.conftest import make_obj


@pytest.fixture
def gateway():
    cluster = BesteffsCluster(
        {f"n{i}": gib(2) for i in range(4)},
        placement=PlacementConfig(x=4, m=2),
        seed=1,
    )
    realm = CapabilityRealm(b"secret")
    ledger = FairShareLedger(
        budget_per_period=annotation_cost(make_obj(1.0)) * 3.01,
        period_minutes=days(30),
    )
    return BesteffsGateway(cluster=cluster, realm=realm, ledger=ledger), realm


class TestWritePath:
    def test_happy_path_stores(self, gateway):
        gw, realm = gateway
        cap = realm.mint("camera-1")
        outcome = gw.handle(StoreRequest(cap, make_obj(1.0)), now=0.0)
        assert outcome.stored
        assert outcome.status.gate is None
        assert outcome.cost_charged > 0.0
        assert outcome.decision is not None and outcome.decision.placed

    def test_auth_gate_fires_first(self, gateway):
        gw, realm = gateway
        cap = realm.mint("student", max_initial_importance=0.5)
        greedy = make_obj(1.0)  # initial importance 1.0
        outcome = gw.handle(StoreRequest(cap, greedy), now=0.0)
        assert not outcome.stored
        assert outcome.status.gate == "auth"
        assert gw.refusals["auth"] == 1
        # Nothing was charged or stored.
        assert gw.ledger.spent("student", 0.0) == 0.0
        assert gw.cluster.resident_count() == 0

    def test_fairness_gate_blocks_overdraw(self, gateway):
        gw, realm = gateway
        cap = realm.mint("camera-1")
        for _ in range(3):
            assert gw.handle(StoreRequest(cap, make_obj(1.0)), now=0.0).stored
        outcome = gw.handle(StoreRequest(cap, make_obj(1.0)), now=0.0)
        assert not outcome.stored
        assert outcome.status.gate == "fairness"
        assert gw.refusals["fairness"] == 1

    def test_placement_refusal_refunds_budget(self, gateway):
        gw, realm = gateway
        # Fill the whole cluster at importance 1.0 via a generous principal.
        big_ledger_cap = realm.mint("filler")
        gw.ledger.budget_per_period = annotation_cost(make_obj(1.0)) * 100
        for _ in range(8):
            gw.handle(StoreRequest(big_ledger_cap, make_obj(1.0)), now=0.0)
        spent_before = gw.ledger.spent("filler", 0.0)
        outcome = gw.handle(StoreRequest(big_ledger_cap, make_obj(1.0)), now=0.0)
        assert not outcome.stored
        assert outcome.status.gate == "placement"
        assert outcome.cost_charged == 0.0
        assert gw.ledger.spent("filler", 0.0) == pytest.approx(spent_before)

    def test_student_pegging_end_to_end(self, gateway):
        gw, realm = gateway
        student = realm.mint("student:alice", max_initial_importance=0.5)
        pegged = make_obj(
            0.5, lifetime=TwoStepImportance(p=0.5, t_persist=days(7), t_wane=days(7))
        )
        outcome = gw.handle(StoreRequest(student, pegged), now=0.0)
        assert outcome.stored

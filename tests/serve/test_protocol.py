"""Tests for the frozen request/response protocol."""

import math

import pytest

from repro.besteffs.auth import CapabilityRealm
from repro.besteffs.placement import PlacementDecision
from repro.serve.ledger import ServeLedger
from repro.serve.protocol import ServeError, StoreRequest, StoreResponse, StoreStatus
from tests.conftest import make_obj

REALM = CapabilityRealm(b"protocol-tests")


def make_request(**kwargs):
    kwargs.setdefault("capability", REALM.mint("alice"))
    kwargs.setdefault("obj", make_obj(0.1))
    return StoreRequest(**kwargs)


def ledger_line(request, response) -> dict:
    """The pair's canonical form: the object its ledger line encodes."""
    ledger = ServeLedger()
    ledger.record(request, response, t_submit=0.0, t_decided=0.0)
    (line,) = ledger.entry_dicts()
    return line


class TestStoreStatus:
    def test_taxonomy_is_closed_and_stable(self):
        assert {s.value for s in StoreStatus} == {
            "admitted",
            "rejected-auth",
            "rejected-fairness",
            "rejected-placement",
            "shed-backpressure",
            "expired-in-queue",
        }

    def test_gates_map_onto_legacy_refusal_names(self):
        assert StoreStatus.ADMITTED.gate is None
        assert StoreStatus.REJECTED_AUTH.gate == "auth"
        assert StoreStatus.REJECTED_FAIRNESS.gate == "fairness"
        assert StoreStatus.REJECTED_PLACEMENT.gate == "placement"
        assert StoreStatus.EXPIRED_IN_QUEUE.gate == "deadline"
        assert StoreStatus.SHED_BACKPRESSURE.gate == "backpressure"

    def test_retryability(self):
        assert StoreStatus.REJECTED_FAIRNESS.retryable
        assert StoreStatus.REJECTED_PLACEMENT.retryable
        assert StoreStatus.SHED_BACKPRESSURE.retryable
        assert not StoreStatus.REJECTED_AUTH.retryable
        assert not StoreStatus.ADMITTED.retryable
        assert not StoreStatus.EXPIRED_IN_QUEUE.retryable


class TestStoreRequest:
    def test_request_id_derives_from_object_id(self):
        obj = make_obj(0.1, object_id="obj-test-7")
        request = make_request(obj=obj)
        assert request.request_id == "req-obj-test-7"

    def test_explicit_request_id_wins(self):
        request = make_request(request_id="client-42")
        assert request.request_id == "client-42"

    def test_principal_comes_from_capability(self):
        request = make_request(capability=REALM.mint("bob"))
        assert request.principal == "bob"

    def test_deadline_before_arrival_rejected(self):
        with pytest.raises(ServeError):
            make_request(obj=make_obj(0.1, t_arrival=100.0), deadline=50.0)

    def test_nan_deadline_rejected(self):
        with pytest.raises(ServeError):
            make_request(deadline=math.nan)

    def test_deadline_at_arrival_allowed(self):
        request = make_request(obj=make_obj(0.1, t_arrival=10.0), deadline=10.0)
        assert request.deadline == 10.0

    def test_canonical_dict_is_sim_time_only(self):
        obj = make_obj(0.25, t_arrival=60.0, object_id="obj-c", creator="cam")
        request = make_request(obj=obj, deadline=120.0)
        d = ledger_line(request, StoreResponse("req-obj-c", StoreStatus.ADMITTED))
        assert d["request"] == {
            "request_id": "req-obj-c",
            "principal": "alice",
            "object_id": "obj-c",
            "size": obj.size,
            "creator": "cam",
            "t_arrival": 60.0,
            "deadline": 120.0,
        }


class TestStoreResponse:
    def test_admitted_properties(self):
        decision = PlacementDecision(
            placed=True, node_id="n1", rounds_used=1, nodes_probed=4,
            chosen_score=0.0, reason="ok",
        )
        response = StoreResponse(
            request_id="r1", status=StoreStatus.ADMITTED,
            detail="placed on n1", decision=decision, cost_charged=5.0,
        )
        assert response.stored
        assert response.status.gate is None
        assert ledger_line(make_request(), response)["response"]["node_id"] == "n1"

    def test_canonical_dict_has_no_wallclock_fields(self):
        response = StoreResponse(
            "r", StoreStatus.ADMITTED, detail="ok", cost_charged=1.0, retry_after=2.0
        )
        assert set(ledger_line(make_request(), response)["response"]) == {
            "request_id", "status", "detail", "node_id", "cost_charged", "retry_after",
        }

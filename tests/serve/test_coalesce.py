"""Write coalescing: one admission per (token, object, payload) per round.

Covers the interaction matrix the sharded runner leans on: coalesced
fan-out, deadline expiry *inside* a coalesced batch, and graceful drain
of partially coalesced rounds.
"""

import asyncio
import dataclasses

import pytest

from repro import obs
from repro.besteffs.auth import CapabilityRealm
from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.fairness import FairShareLedger, annotation_cost
from repro.besteffs.gateway import BesteffsGateway
from repro.besteffs.placement import PlacementConfig
from repro.core.importance import TwoStepImportance
from repro.serve.ledger import ServeLedger
from repro.serve.protocol import StoreRequest, StoreStatus
from repro.serve.service import GatewayService, ServeConfig
from repro.units import days, gib
from tests.conftest import make_obj


def make_gateway(nodes: int = 4, budget_objects: float = 100.0) -> BesteffsGateway:
    cluster = BesteffsCluster(
        {f"n{i}": gib(2) for i in range(nodes)},
        placement=PlacementConfig(x=min(4, nodes), m=2),
        seed=1,
    )
    realm = CapabilityRealm(b"coalesce-tests")
    ledger = FairShareLedger(
        budget_per_period=annotation_cost(make_obj(1.0)) * budget_objects,
        period_minutes=days(30),
    )
    return BesteffsGateway(cluster=cluster, realm=realm, ledger=ledger)


def request(gateway, object_id, *, rid, t=0.0, deadline=None, size_gib=0.1):
    cap = gateway.realm.mint("cam")
    return StoreRequest(
        capability=cap,
        obj=make_obj(size_gib, t_arrival=t, object_id=object_id),
        request_id=rid,
        deadline=deadline,
    )


def drive_one_batch(gateway, requests, config=None):
    """Queue all requests before the worker runs: one admission round."""
    ledger = ServeLedger()
    service_ref = {}

    async def run():
        service = GatewayService(
            gateway, config=config or ServeConfig(batch_max=32), ledger=ledger
        )
        service_ref["s"] = service
        await service.start()
        tasks = [asyncio.ensure_future(service.submit(r)) for r in requests]
        responses = await asyncio.gather(*tasks)
        await service.stop()
        return responses

    return asyncio.run(run()), service_ref["s"], ledger


class TestCoalescedFanOut:
    def test_same_object_same_batch_is_one_admission(self):
        gateway = make_gateway()
        requests = [
            request(gateway, "obj-hot", rid=f"req-{i}") for i in range(5)
        ]
        responses, service, ledger = drive_one_batch(gateway, requests)
        assert all(r.status is StoreStatus.ADMITTED for r in responses)
        # One leader charged and placed; four siblings answered for free.
        assert service.coalesced_total == 4
        assert gateway.cluster.stats(now=0.0).placed == 1
        charged = [r for r in responses if r.cost_charged > 0]
        assert len(charged) == 1
        siblings = [r for r in responses if "coalesced with" in r.detail]
        assert len(siblings) == 4
        assert all(r.cost_charged == 0.0 for r in siblings)
        assert len(ledger) == 5  # every caller still gets a ledger line

    def test_distinct_principals_do_not_coalesce(self):
        gateway = make_gateway()
        caps = [gateway.realm.mint(f"user-{i}") for i in range(3)]
        requests = [
            StoreRequest(
                capability=cap,
                obj=make_obj(0.1, object_id="obj-hot"),
                request_id=f"req-{i}",
            )
            for i, cap in enumerate(caps)
        ]
        responses, service, _ = drive_one_batch(gateway, requests)
        assert service.coalesced_total == 0
        # The duplicates dedup against the resident copy instead.
        assert [r.status for r in responses].count(StoreStatus.ADMITTED) == 3

    def test_coalesce_off_disables_fan_out(self):
        gateway = make_gateway()
        requests = [
            request(gateway, "obj-hot", rid=f"req-{i}") for i in range(4)
        ]
        _, service, _ = drive_one_batch(
            gateway, requests, config=ServeConfig(batch_max=32, coalesce=False)
        )
        assert service.coalesced_total == 0

    def test_coalesced_counter_exported(self):
        obs.reset()
        obs.enable()
        try:
            gateway = make_gateway()
            requests = [
                request(gateway, "obj-hot", rid=f"req-{i}") for i in range(3)
            ]
            drive_one_batch(gateway, requests)
            assert obs.STATE.registry.get("serve_coalesced_total").value() == 2
        finally:
            obs.disable()
            obs.reset()


class TestDeadlineInCoalescedBatch:
    def test_expired_request_not_admitted_via_sibling(self):
        gateway = make_gateway()
        # Both name the same object; the batch is judged at the max
        # submitted sim-time (t=10), past the first request's deadline.
        expired = request(gateway, "obj-hot", rid="req-stale", t=0.0, deadline=5.0)
        live = request(gateway, "obj-hot", rid="req-live", t=10.0)
        responses, service, _ = drive_one_batch(gateway, [expired, live])
        by_id = {r.request_id: r for r in responses}
        assert by_id["req-stale"].status is StoreStatus.EXPIRED_IN_QUEUE
        assert by_id["req-live"].status is StoreStatus.ADMITTED
        # The expired request joined no group: nothing was coalesced.
        assert service.coalesced_total == 0
        assert "coalesced" not in by_id["req-stale"].detail

    def test_live_siblings_still_coalesce_around_expired_member(self):
        gateway = make_gateway()
        expired = request(gateway, "obj-hot", rid="req-stale", t=0.0, deadline=5.0)
        live = [
            request(gateway, "obj-hot", rid=f"req-{i}", t=10.0) for i in range(3)
        ]
        responses, service, _ = drive_one_batch(gateway, [expired, *live])
        by_id = {r.request_id: r for r in responses}
        assert by_id["req-stale"].status is StoreStatus.EXPIRED_IN_QUEUE
        assert all(by_id[f"req-{i}"].status is StoreStatus.ADMITTED for i in range(3))
        assert service.coalesced_total == 2


class TestDrainFlushesCoalescedRounds:
    def test_stop_answers_partially_coalesced_queue(self):
        gateway = make_gateway()
        requests = [
            request(gateway, f"obj-{i % 2}", rid=f"req-{i}") for i in range(8)
        ]
        ledger = ServeLedger()

        async def run():
            service = GatewayService(
                gateway, config=ServeConfig(batch_max=8), ledger=ledger
            )
            await service.start()
            tasks = [asyncio.ensure_future(service.submit(r)) for r in requests]
            # One scheduler turn queues all eight, then drain immediately:
            # the pending batch — two coalesce groups — must still be
            # admitted and fanned out before stop returns.
            await asyncio.sleep(0)
            await service.stop()
            return service, await asyncio.gather(*tasks)

        service, responses = asyncio.run(run())
        assert len(responses) == 8
        assert all(r.status is StoreStatus.ADMITTED for r in responses)
        assert service.coalesced_total == 6  # 8 requests, 2 leaders
        assert len(ledger) == 8


class TestCoalescingNeverSkipsAuthentication:
    """Groups form before authentication, on the *claimed* principal: a
    member rides its leader's decision only with the same presented token
    and the same payload fields auth reads."""

    @staticmethod
    def pair(gateway, **alice_kwargs):
        alice = gateway.realm.mint("alice", **alice_kwargs)
        forged = dataclasses.replace(alice, signature="0" * 64)
        valid = StoreRequest(
            capability=alice, obj=make_obj(0.1, object_id="doc-1"), request_id="valid"
        )
        attack = StoreRequest(
            capability=forged, obj=make_obj(0.1, object_id="doc-1"), request_id="forged"
        )
        return valid, attack

    @pytest.mark.parametrize("forged_first", [True, False])
    def test_forged_sibling_neither_refuses_nor_rides_the_valid_write(
        self, forged_first
    ):
        gateway = make_gateway()
        valid, attack = self.pair(gateway)
        batch = [attack, valid] if forged_first else [valid, attack]
        responses, service, _ = drive_one_batch(gateway, batch)
        by_id = {r.request_id: r for r in responses}
        assert by_id["valid"].status is StoreStatus.ADMITTED
        assert by_id["valid"].cost_charged > 0  # admitted on its own merits
        assert by_id["forged"].status is StoreStatus.REJECTED_AUTH
        assert "coalesced" not in by_id["forged"].detail
        assert "coalesced" not in by_id["valid"].detail
        assert service.coalesced_total == 0
        assert gateway.refusals["auth"] == 1
        assert gateway.cluster.stats(now=0.0).placed == 1

    def test_identical_forgeries_coalesce_with_each_other_only(self):
        gateway = make_gateway()
        valid, attack = self.pair(gateway)
        again = dataclasses.replace(attack, request_id="forged-2")
        responses, service, _ = drive_one_batch(gateway, [attack, valid, again])
        assert [r.status for r in responses] == [
            StoreStatus.REJECTED_AUTH, StoreStatus.ADMITTED, StoreStatus.REJECTED_AUTH
        ]
        assert service.coalesced_total == 1  # forged-2 rode forged, not valid
        assert "coalesced with forged" in responses[2].detail
        assert gateway.refusals["auth"] == 1
        assert gateway.cluster.stats(now=0.0).placed == 1

    def test_same_token_over_its_byte_limit_is_refused_not_admitted(self):
        gateway = make_gateway()
        cap = gateway.realm.mint("alice", max_object_bytes=gib(0.5))
        small = StoreRequest(
            capability=cap, obj=make_obj(0.1, object_id="doc-1"), request_id="small"
        )
        big = StoreRequest(
            capability=cap, obj=make_obj(1.0, object_id="doc-1"), request_id="big"
        )
        responses, service, _ = drive_one_batch(gateway, [small, big])
        by_id = {r.request_id: r for r in responses}
        assert by_id["small"].status is StoreStatus.ADMITTED
        assert by_id["big"].status is StoreStatus.REJECTED_AUTH
        assert "exceeds" in by_id["big"].detail
        assert service.coalesced_total == 0

    def test_same_token_over_its_importance_ceiling_is_refused(self):
        gateway = make_gateway()
        cap = gateway.realm.mint("student:bob", max_initial_importance=0.5)
        pegged = TwoStepImportance(p=0.5, t_persist=days(1), t_wane=days(1))
        greedy = TwoStepImportance(p=1.0, t_persist=days(1), t_wane=days(1))
        ok = StoreRequest(
            capability=cap,
            obj=make_obj(0.1, object_id="doc-1", lifetime=pegged),
            request_id="ok",
        )
        over = StoreRequest(
            capability=cap,
            obj=make_obj(0.1, object_id="doc-1", lifetime=greedy),
            request_id="over",
        )
        responses, _, _ = drive_one_batch(gateway, [ok, over])
        assert [r.status for r in responses] == [
            StoreStatus.ADMITTED, StoreStatus.REJECTED_AUTH
        ]

    @pytest.mark.parametrize("expired_first", [True, False])
    def test_token_expired_by_the_batch_clock_is_refused(self, expired_first):
        gateway = make_gateway()
        live = gateway.realm.mint("alice")
        stale = gateway.realm.mint("alice", expires_at_minutes=5.0)
        # Submitted at t=0 while still valid; the round is judged at t=10.
        early = StoreRequest(
            capability=stale, obj=make_obj(0.1, object_id="doc-1"), request_id="stale"
        )
        late = StoreRequest(
            capability=live,
            obj=make_obj(0.1, t_arrival=10.0, object_id="doc-1"),
            request_id="live",
        )
        batch = [early, late] if expired_first else [late, early]
        responses, service, _ = drive_one_batch(gateway, batch)
        by_id = {r.request_id: r for r in responses}
        assert by_id["stale"].status is StoreStatus.REJECTED_AUTH
        assert "expired" in by_id["stale"].detail
        assert by_id["live"].status is StoreStatus.ADMITTED
        assert service.coalesced_total == 0

    def test_siblings_sharing_an_expired_token_are_refused_together(self):
        gateway = make_gateway()
        stale = gateway.realm.mint("alice", expires_at_minutes=5.0)
        batch = [
            StoreRequest(
                capability=stale,
                obj=make_obj(0.1, t_arrival=t, object_id="doc-1"),
                request_id=f"req-{i}",
            )
            for i, t in enumerate((0.0, 10.0))
        ]
        responses, service, _ = drive_one_batch(gateway, batch)
        assert all(r.status is StoreStatus.REJECTED_AUTH for r in responses)
        assert service.coalesced_total == 1  # same token, same clock: one verdict
        assert gateway.cluster.stats(now=10.0).placed == 0

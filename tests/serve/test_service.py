"""Tests for the async gateway service: batching, backpressure, drain."""

import asyncio
import dataclasses

import pytest

from repro import obs
from repro.besteffs.auth import CapabilityRealm
from repro.besteffs.cluster import BesteffsCluster
from repro.besteffs.fairness import FairShareLedger, annotation_cost
from repro.besteffs.gateway import BesteffsGateway
from repro.besteffs.placement import PlacementConfig
from repro.serve.ledger import ServeLedger
from repro.serve.protocol import ServeError, StoreRequest, StoreStatus
from repro.serve.service import GatewayService, ServeConfig, serve
from repro.units import days, gib
from tests.conftest import make_obj


def make_gateway(nodes: int = 4, budget_objects: float = 100.0) -> BesteffsGateway:
    cluster = BesteffsCluster(
        {f"n{i}": gib(2) for i in range(nodes)},
        placement=PlacementConfig(x=min(4, nodes), m=2),
        seed=1,
    )
    realm = CapabilityRealm(b"service-tests")
    ledger = FairShareLedger(
        budget_per_period=annotation_cost(make_obj(1.0)) * budget_objects,
        period_minutes=days(30),
    )
    return BesteffsGateway(cluster=cluster, realm=realm, ledger=ledger)


def make_requests(gateway, n, *, size_gib=0.1, start=0.0, step=1.0, deadline=None):
    cap = gateway.realm.mint("cam")
    out = []
    for i in range(n):
        t = start + i * step
        obj = make_obj(size_gib, t_arrival=t, object_id=f"obj-{i:04d}")
        out.append(
            StoreRequest(
                capability=cap,
                obj=obj,
                deadline=None if deadline is None else t + deadline,
            )
        )
    return out


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_size": 0},
            {"batch_max": 0},
            {"retry_after_minutes": 0.0},
            {"executor": "fork"},
            {"threads": 0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ServeError):
            ServeConfig(**kwargs)


class TestServeHelper:
    def test_responses_in_submission_order(self):
        gateway = make_gateway()
        requests = make_requests(gateway, 10)
        responses = serve(gateway, requests)
        assert [r.request_id for r in responses] == [r.request_id for r in requests]
        assert all(r.status is StoreStatus.ADMITTED for r in responses)

    def test_batching_coalesces_requests(self):
        gateway = make_gateway()
        ledger = ServeLedger()
        service_ref = {}

        async def run():
            service = GatewayService(
                gateway, config=ServeConfig(batch_max=8), ledger=ledger
            )
            service_ref["s"] = service
            await service.start()
            # Queue everything before the worker gets a turn: one or two
            # admission rounds instead of sixteen.
            tasks = [
                asyncio.ensure_future(service.submit(r))
                for r in make_requests(gateway, 16)
            ]
            responses = await asyncio.gather(*tasks)
            await service.stop()
            return responses

        responses = asyncio.run(run())
        service = service_ref["s"]
        assert len(responses) == 16
        assert service.batches <= 4  # far fewer rounds than requests
        assert service.queue_peak >= 8
        assert len(ledger) == 16

    def test_batch_judged_at_one_clock(self):
        gateway = make_gateway()

        async def run():
            service = GatewayService(gateway, config=ServeConfig(batch_max=32))
            await service.start()
            requests = make_requests(gateway, 5, start=0.0, step=100.0)
            tasks = [asyncio.ensure_future(service.submit(r)) for r in requests]
            responses = await asyncio.gather(*tasks)
            await service.stop()
            return service, responses

        service, responses = asyncio.run(run())
        # All five queued before the worker ran: one batch, judged at the
        # max submitted sim-time.
        assert service.batches == 1
        assert service.clock == 400.0
        assert all(r.stored for r in responses)


class TestBackpressure:
    def test_queue_full_sheds_with_retry_after(self):
        gateway = make_gateway()
        config = ServeConfig(queue_size=4, batch_max=4, retry_after_minutes=2.5)

        async def run():
            service = GatewayService(gateway, config=config)
            await service.start()
            tasks = [
                asyncio.ensure_future(service.submit(r))
                for r in make_requests(gateway, 12)
            ]
            responses = await asyncio.gather(*tasks)
            await service.stop()
            return service, responses

        service, responses = asyncio.run(run())
        shed = [r for r in responses if r.status is StoreStatus.SHED_BACKPRESSURE]
        assert shed, "a 4-slot queue must shed a 12-request flood"
        assert all(r.retry_after == 2.5 for r in shed)
        assert service.shed_by_reason.get("queue-full") == len(shed)
        # Shed + processed covers every submission.
        assert len(responses) == 12

    def test_rate_limit_sheds_per_principal(self):
        gateway = make_gateway()
        config = ServeConfig(rate_per_minute=0.001, rate_burst=2.0)

        async def run():
            service = GatewayService(gateway, config=config)
            await service.start()
            # All five requests land at the same sim-minute: burst covers 2.
            requests = make_requests(gateway, 5, step=0.0)
            responses = [await service.submit(r) for r in requests]
            await service.stop()
            return service, responses

        service, responses = asyncio.run(run())
        statuses = [r.status for r in responses]
        assert statuses.count(StoreStatus.ADMITTED) == 2
        assert statuses.count(StoreStatus.SHED_BACKPRESSURE) == 3
        assert service.shed_by_reason == {"ratelimit": 3}
        shed = [r for r in responses if not r.stored]
        assert all(r.retry_after and r.retry_after > 0 for r in shed)


class TestDeadlines:
    def test_queued_request_past_deadline_expires(self):
        gateway = make_gateway()

        async def run():
            service = GatewayService(gateway, config=ServeConfig(batch_max=8))
            await service.start()
            stale = StoreRequest(
                capability=gateway.realm.mint("cam"),
                obj=make_obj(0.1, t_arrival=0.0, object_id="obj-stale"),
                deadline=5.0,
            )
            fresh = make_requests(gateway, 1, start=50.0)[0]
            # Both queue before the worker runs; the batch clock is 50,
            # past the stale deadline of 5.
            t_stale = asyncio.ensure_future(service.submit(stale))
            t_fresh = asyncio.ensure_future(service.submit(fresh))
            responses = await asyncio.gather(t_stale, t_fresh)
            await service.stop()
            return responses

        stale_resp, fresh_resp = asyncio.run(run())
        assert stale_resp.status is StoreStatus.EXPIRED_IN_QUEUE
        assert "deadline" in stale_resp.detail
        assert fresh_resp.status is StoreStatus.ADMITTED
        # The expired request never reached the gateway: no charge, no gate.
        assert gateway.ledger.spent("cam", 50.0) == fresh_resp.cost_charged


class TestLifecycle:
    def test_submit_before_start_raises(self):
        gateway = make_gateway()
        service = GatewayService(gateway)

        async def run():
            await service.submit(make_requests(gateway, 1)[0])

        with pytest.raises(ServeError):
            asyncio.run(run())

    def test_graceful_drain_answers_everything_queued(self):
        gateway = make_gateway()

        async def run():
            service = GatewayService(gateway, config=ServeConfig(batch_max=2))
            await service.start()
            tasks = [
                asyncio.ensure_future(service.submit(r))
                for r in make_requests(gateway, 9)
            ]
            # One yield lets all nine enqueue; then the sentinel queues
            # behind them and drain must answer every one.
            await asyncio.sleep(0)
            await service.stop()
            return await asyncio.gather(*tasks)

        responses = asyncio.run(run())
        assert len(responses) == 9
        assert all(r.status is not StoreStatus.SHED_BACKPRESSURE for r in responses)

    def test_double_start_rejected_and_restart_allowed(self):
        gateway = make_gateway()

        async def run():
            service = GatewayService(gateway)
            await service.start()
            with pytest.raises(ServeError):
                await service.start()
            await service.stop()
            await service.start()  # restart after drain is fine
            response = await service.submit(make_requests(gateway, 1)[0])
            await service.stop()
            return response

        assert asyncio.run(run()).stored

    @pytest.mark.parametrize("executor", ["inline", "thread"])
    def test_raising_gateway_fails_its_batch_and_keeps_draining(self, executor):
        # Rounds of two; the gateway raises in the 2nd.  Every caller must
        # get exactly one terminal outcome and stop() must still return.
        gateway = make_gateway()
        real_handle_batch = gateway.handle_batch
        rounds = []

        def flaky_handle_batch(requests, now=None):
            rounds.append(len(requests))
            if len(rounds) == 2:
                raise RuntimeError("gateway down")
            return real_handle_batch(requests, now=now)

        gateway.handle_batch = flaky_handle_batch
        ledger = ServeLedger()

        async def run():
            service = GatewayService(
                gateway,
                config=ServeConfig(batch_max=2, executor=executor),
                ledger=ledger,
            )
            await service.start()
            tasks = [
                asyncio.ensure_future(service.submit(r))
                for r in make_requests(gateway, 6)
            ]
            await asyncio.sleep(0)
            await service.stop()
            return service, await asyncio.gather(*tasks, return_exceptions=True)

        service, outcomes = asyncio.run(asyncio.wait_for(run(), timeout=10))
        assert rounds == [2, 2, 2]
        assert [type(o) for o in outcomes[2:4]] == [RuntimeError, RuntimeError]
        assert all(o.stored for o in outcomes[:2] + outcomes[4:])
        assert service.failed_batches == 1
        assert not service.running
        # The failed round answered nobody, so it left no ledger entries.
        assert len(ledger) == 4

    @pytest.mark.parametrize(
        "signature", ["é" * 64, b"0" * 64, None], ids=["non-ascii", "bytes", "none"]
    )
    def test_malformed_signature_is_refused_without_failing_its_round(
        self, signature
    ):
        # hmac.compare_digest raises TypeError for all three shapes; that
        # must read "forged", not take the other callers' round down.
        gateway = make_gateway()
        requests = make_requests(gateway, 5)
        malformed = dataclasses.replace(requests[2].capability, signature=signature)
        requests[2] = dataclasses.replace(requests[2], capability=malformed)
        ledger = ServeLedger()

        async def run():
            service = GatewayService(
                gateway, config=ServeConfig(batch_max=8), ledger=ledger
            )
            await service.start()
            tasks = [asyncio.ensure_future(service.submit(r)) for r in requests]
            responses = await asyncio.gather(*tasks)
            await service.stop()
            return service, responses

        service, responses = asyncio.run(asyncio.wait_for(run(), timeout=10))
        assert service.batches == 1 and service.failed_batches == 0
        assert responses[2].status is StoreStatus.REJECTED_AUTH
        assert "forged" in responses[2].detail
        assert all(r.stored for i, r in enumerate(responses) if i != 2)
        assert gateway.refusals["auth"] == 1
        assert len(ledger) == 5

    def test_thread_executor_matches_inline_statuses(self):
        inline_gw = make_gateway()
        inline = serve(inline_gw, make_requests(inline_gw, 12, size_gib=0.2))
        threaded_gw = make_gateway()
        threaded = serve(
            threaded_gw,
            make_requests(threaded_gw, 12, size_gib=0.2),
            config=ServeConfig(executor="thread", threads=2),
        )
        assert [r.status for r in inline] == [r.status for r in threaded]


class TestObsWiring:
    def test_serving_metrics_registered_and_counted(self):
        obs.reset()
        obs.enable()
        try:
            gateway = make_gateway()
            config = ServeConfig(queue_size=4, batch_max=4)

            async def run():
                service = GatewayService(gateway, config=config)
                await service.start()
                tasks = [
                    asyncio.ensure_future(service.submit(r))
                    for r in make_requests(gateway, 12)
                ]
                responses = await asyncio.gather(*tasks)
                await service.stop()
                return responses

            responses = asyncio.run(run())
            registry = obs.STATE.registry
            assert registry.get("serve_requests_total").value() == 12
            responses_total = registry.get("serve_responses_total")
            counted = sum(responses_total.series().values())
            assert counted == 12
            admitted = sum(1 for r in responses if r.stored)
            assert responses_total.value(status="admitted") == admitted
            shed = registry.get("serve_shed_total")
            assert shed.value(reason="queue-full") == sum(
                1 for r in responses if r.status is StoreStatus.SHED_BACKPRESSURE
            )
            latency = registry.get("serve_admission_latency_seconds")
            processed = 12 - int(shed.value(reason="queue-full"))
            assert latency.snapshot()["count"] == processed
            batch = registry.get("serve_batch_size")
            assert batch.snapshot()["count"] >= 1
            assert registry.get("serve_queue_depth") is not None
        finally:
            obs.disable()
            obs.reset()

    def test_disabled_obs_registers_nothing(self):
        obs.reset()
        gateway = make_gateway()
        serve(gateway, make_requests(gateway, 4))
        assert len(obs.STATE.registry) == 0

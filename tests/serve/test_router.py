"""Tests for deterministic shard routing with saturation-aware spill."""

import pytest

from repro.besteffs.auth import CapabilityRealm
from repro.serve import router as router_module
from repro.serve.loadgen import LoadGenSpec, build_requests
from repro.serve.protocol import ServeError, StoreRequest
from repro.serve.router import (
    RouterConfig,
    ShardRouter,
    home_shard,
    plan_routes,
)
from tests.conftest import make_obj


def make_requests(object_ids, *, start=0.0, step=1.0):
    realm = CapabilityRealm(b"router-tests")
    cap = realm.mint("cam")
    return [
        StoreRequest(
            capability=cap,
            obj=make_obj(0.01, t_arrival=start + i * step, object_id=object_id),
        )
        for i, object_id in enumerate(object_ids)
    ]


def ids_homed_on(shard, shards, count, prefix="obj"):
    """Deterministically enumerate ids whose home is ``shard``."""
    out = []
    candidate = 0
    while len(out) < count:
        name = f"{prefix}-{candidate:05d}"
        if home_shard(name, shards) == shard:
            out.append(name)
        candidate += 1
    return out


class TestHomeShard:
    def test_range_and_stability(self):
        for shards in (1, 2, 4, 7):
            homes = [home_shard(f"obj-{i}", shards) for i in range(200)]
            assert all(0 <= h < shards for h in homes)
            assert homes == [home_shard(f"obj-{i}", shards) for i in range(200)]

    def test_single_shard_is_always_zero(self):
        assert all(home_shard(f"obj-{i}", 1) == 0 for i in range(50))

    def test_all_shards_reachable(self):
        homes = {home_shard(f"obj-{i}", 4) for i in range(200)}
        assert homes == {0, 1, 2, 3}

    def test_independent_of_process_hash_seed(self):
        # A pinned value: sha256, not hash(), so any run anywhere agrees.
        assert home_shard("obj-00000", 4) == home_shard("obj-00000", 4)
        assert home_shard("flash-42-00000", 1) == 0

    def test_rejects_bad_shards(self):
        with pytest.raises(ServeError):
            home_shard("obj", 0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"spill": "sometimes"},
            {"high_water": 0},
            {"window_minutes": 0.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ServeError):
            RouterConfig(**kwargs)


class TestRouting:
    def test_single_shard_never_spills(self):
        requests = make_requests([f"obj-{i}" for i in range(100)], step=0.0)
        plan, router = plan_routes(requests, RouterConfig(shards=1, high_water=1))
        assert all(d.shard == 0 and not d.spilled for d in plan)
        assert router.spilled_total == 0

    def test_below_high_water_routes_home(self):
        object_ids = [f"obj-{i:04d}" for i in range(64)]
        plan, _ = plan_routes(
            make_requests(object_ids), RouterConfig(shards=4, high_water=1000)
        )
        assert all(d.shard == d.home for d in plan)
        assert [d.home for d in plan] == [home_shard(o, 4) for o in object_ids]

    def test_never_policy_keeps_saturated_home(self):
        hot = ids_homed_on(0, 4, 50)
        plan, router = plan_routes(
            make_requests(hot, step=0.0),
            RouterConfig(shards=4, spill="never", high_water=4),
        )
        assert all(d.shard == 0 for d in plan)
        assert router.spilled_total == 0

    def test_overflow_spills_past_high_water(self):
        hot = ids_homed_on(0, 4, 50, prefix="hot")
        plan, router = plan_routes(
            make_requests(hot, step=0.0),
            RouterConfig(shards=4, spill="overflow", high_water=4),
        )
        spilled = [d for d in plan if d.spilled]
        assert spilled, "a saturated home must spill"
        assert all(d.home == 0 for d in plan)
        assert {d.shard for d in spilled} <= {1, 2, 3}
        assert router.spilled_total == len(spilled)

    def test_spill_balances_across_shards(self):
        hot = ids_homed_on(0, 4, 400, prefix="hot")
        plan, router = plan_routes(
            make_requests(hot, step=0.0),
            RouterConfig(shards=4, spill="overflow", high_water=4),
        )
        counts = router.routed_by_shard
        assert sum(counts) == 400
        # Saturation spill spreads the crowd: no shard more than ~2x the
        # fair share once the home hits high water.
        assert max(counts) <= 2 * (400 // 4) + 4

    def test_window_expiry_restores_home_routing(self):
        hot = ids_homed_on(0, 4, 20, prefix="hot")
        config = RouterConfig(shards=4, high_water=8, window_minutes=10.0)
        router = ShardRouter(config=config)
        # Saturate the home within one window...
        for request in make_requests(hot[:10], step=0.0):
            router.route(request)
        assert router.offered_load(0, 0.0) >= config.high_water
        # ...then a request far past the window routes home again.
        late = make_requests(hot[10:11], start=1000.0)[0]
        decision = router.route(late, now=1000.0)
        assert decision.shard == decision.home == 0
        assert router.offered_load(0, 1000.0) == 1

    def test_plan_is_deterministic(self):
        object_ids = [f"obj-{i:04d}" for i in range(200)]
        config = RouterConfig(shards=4, high_water=8, window_minutes=60.0)
        plan_a, _ = plan_routes(make_requests(object_ids), config)
        plan_b, _ = plan_routes(make_requests(object_ids), config)
        assert plan_a == plan_b


class TestWindowsStayBounded:
    """The offered-load windows hold the trailing window, whatever the
    spill policy, and equal routes share one decision object."""

    @pytest.mark.parametrize(
        "config",
        [
            RouterConfig(shards=2, spill="never", window_minutes=50.0),
            RouterConfig(shards=1, window_minutes=50.0),
            RouterConfig(shards=2, high_water=8, window_minutes=50.0),
        ],
        ids=["never", "one-shard", "overflow"],
    )
    def test_retained_timestamps_fit_the_window(self, config):
        # One request per minute for 2,000 minutes: forty windows' worth.
        requests = make_requests([f"obj-{i:05d}" for i in range(2000)])
        plan, router = plan_routes(requests, config)
        in_window = sum(
            1 for r in requests if r.obj.t_arrival > 1999.0 - config.window_minutes
        )
        assert in_window == 50
        assert sum(len(window) for window in router._windows) <= in_window
        loads = [router.offered_load(s, 1999.0) for s in range(config.shards)]
        assert sum(loads) == in_window
        # The plan itself is what it always was: home unless spilled.
        assert [d.home for d in plan] == [
            home_shard(r.obj.object_id, config.shards) for r in requests
        ]
        if config.spill == "never" or config.shards == 1:
            assert all(not d.spilled for d in plan)
        assert len({id(d) for d in plan}) <= config.shards**2


class TestHomeShardMemo:
    """``home_shard`` is memoised with a constant bound; a plan must not
    depend on what the memo holds, and the memo must not grow with the
    stream (most ids are seen exactly once)."""

    def test_flash_plan_equals_the_unmemoised_plan(self, monkeypatch):
        # The serve_flash shape at test scale: a university base stream
        # plus 64 hot ids aimed at one shard, with spill under way.
        spec = LoadGenSpec(
            workload="flashcrowd", shards=4, nodes=16, scale=0.02, horizon_days=40,
            burst_factor=4, hot_objects=64, high_water=16, window_minutes=720,
            seed=42,
        )
        requests = build_requests(spec, CapabilityRealm(b"router-tests"))
        config = RouterConfig(shards=4, high_water=16, window_minutes=720.0)
        home_shard.cache_clear()
        cold, cold_router = plan_routes(requests, config)
        warm, _ = plan_routes(requests, config)  # every hot id already held
        monkeypatch.setattr(router_module, "home_shard", home_shard.__wrapped__)
        plain, plain_router = plan_routes(requests, config)
        assert cold == warm == plain
        assert cold_router.spilled_total == plain_router.spilled_total > 0
        assert len({r.obj.object_id for r in requests}) > 1000

    def test_memo_stays_at_its_constant_bound(self):
        home_shard.cache_clear()
        bound = home_shard.cache_info().maxsize
        assert bound is not None and bound <= 4096
        homes = [home_shard(f"once-{i}", 8) for i in range(10_000)]
        assert home_shard.cache_info().currsize == bound
        assert homes == [home_shard.__wrapped__(f"once-{i}", 8) for i in range(10_000)]

    def test_errors_are_not_memoised(self):
        for _ in range(2):
            with pytest.raises(ServeError):
                home_shard("obj", 0)

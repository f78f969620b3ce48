"""Smoke + shape tests for the extension experiment drivers."""

import pytest

from repro.experiments import ext_churn, ext_mixed_apps, ext_refresh
from repro.sim.parallel import RunSpec
from tests.oracles.replay import check_recorders, recorders_made


class TestMixedApps:
    def test_importance_order_governs_service(self):
        with recorders_made() as recorders:
            result = ext_mixed_apps.execute(
                RunSpec("ext-mixed", {"capacity_gib": 20}, seed=3, horizon_days=120.0)
            )
        check_recorders(recorders)
        archiver = result.per_class["archiver"]
        reporter = result.per_class["reporter"]
        cache = result.per_class["cache"]
        # Strict service ordering by importance under shared pressure.
        assert archiver["rejection_rate"] < reporter["rejection_rate"]
        assert reporter["rejection_rate"] < cache["rejection_rate"]
        assert "archiver" in ext_mixed_apps.render(result)

    def test_all_classes_served_without_pressure(self):
        result = ext_mixed_apps.execute(
            RunSpec("ext-mixed", {"capacity_gib": 400}, seed=3, horizon_days=60.0)
        )
        for stats in result.per_class.values():
            assert stats["rejected"] == 0


class TestChurn:
    def test_departures_lose_single_copies(self):
        with recorders_made() as recorders:
            result = ext_churn.execute(RunSpec("ext-churn", seed=3, horizon_days=200.0))
        check_recorders(recorders)  # departed units fold to empty
        assert result.lost_to_departures > 0
        (recorder,) = recorders
        departures = list(recorder.evictions.column("reason")).count("node-departure")
        assert departures == result.lost_to_departures
        assert result.lost_bytes_gib > 0
        assert result.overlay_rebuilds > 0
        assert "lost to departures" in ext_churn.render(result)

    def test_fleet_upgrade_grows_capacity(self):
        result = ext_churn.execute(
            RunSpec(
                "ext-churn",
                {"node_capacity_gib": 8, "join_capacity_gib": 16},
                seed=3,
                horizon_days=200.0,
            )
        )
        assert result.final_capacity_gib > result.initial_capacity_gib

    def test_no_churn_means_no_departure_losses(self):
        result = ext_churn.execute(
            RunSpec(
                "ext-churn",
                {"leave_fraction": 0.0, "joins_per_interval": 0},
                seed=3,
                horizon_days=120.0,
            )
        )
        assert result.lost_to_departures == 0
        assert result.final_capacity_gib == result.initial_capacity_gib


class TestReads:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_reads

        return ext_reads.execute(RunSpec("ext-reads", {"capacity_gib": 10.0}, seed=11))

    def test_all_variants_scored(self, result):
        assert set(result.per_policy) == {
            "temporal/table1", "temporal/recency", "palimpsest", "lru"
        }
        for stats in result.per_policy.values():
            assert 0.0 <= stats["hit_rate"] <= 1.0
            total = (stats["hits"] + stats["misses_never_stored"]
                     + stats["misses_evicted"])
            assert total == result.requests

    def test_annotation_shape_decides_availability(self, result):
        flat = result.per_policy["temporal/table1"]["hit_rate"]
        recency = result.per_policy["temporal/recency"]["hit_rate"]
        assert recency > flat

    def test_render(self, result):
        from repro.experiments import ext_reads

        assert "Read availability" in ext_reads.render(result)

    def test_ample_capacity_serves_everything(self):
        from repro.experiments import ext_reads

        result = ext_reads.execute(RunSpec("ext-reads", {"capacity_gib": 40.0}, seed=11))
        for stats in result.per_policy.values():
            assert stats["hit_rate"] == 1.0


class TestRefresh:
    @pytest.fixture(scope="class")
    def run(self):
        with recorders_made() as recorders:
            result = ext_refresh.execute(RunSpec("ext-refresh", seed=3, horizon_days=120.0))
        return result, recorders

    @pytest.fixture(scope="class")
    def result(self, run):
        return run[0]

    def test_every_store_replays_with_the_client_offers(self, run):
        result, recorders = run
        check_recorders(recorders)
        assert len(recorders) == len(result.outcomes)
        for recorder in recorders:
            assert ext_refresh.CLIENT in set(recorder.arrivals.column("creator"))
            assert set(recorder.arrivals.column("unit")) == {recorder.units[0].name}

    def test_safety_factor_trades_losses_for_writes(self, result):
        for window in ("hour", "day", "month"):
            eager = result.outcomes[(window, 0.25)]
            lazy = result.outcomes[(window, 0.9)]
            assert eager.refreshes >= lazy.refreshes
            assert eager.lost <= lazy.lost

    def test_losses_occur_somewhere_in_the_sweep(self, result):
        assert any(o.lost > 0 for o in result.outcomes.values())

    def test_write_amplification_is_substantial_for_survival(self, result):
        survivors = [
            o for o in result.outcomes.values()
            if o.registered and o.loss_fraction < 0.2
        ]
        assert survivors
        assert max(o.write_amplification for o in survivors) > 3.0
        assert "rejuvenation" in ext_refresh.render(result)

"""Smoke + shape tests for every figure/table driver at reduced scale.

Each driver must run end to end, produce a well-formed result, and render
without blowing up; the *qualitative* paper claims are asserted at
integration scale in ``tests/integration/test_paper_claims.py``.
"""

import pytest

from repro.experiments import (
    fig2_storage_requirements,
    fig3_lifetimes,
    fig4_rejections,
    fig5_timeconstant,
    fig6_density,
    fig7_cdf,
    fig8_downloads,
    fig9_lecture_lifetimes,
    fig10_reclamation_importance,
    fig11_lecture_timeconstant,
    fig12_lecture_density,
    sec53_university,
    table1_parameters,
)
from repro.errors import SimulationError
from repro.experiments import registry
from repro.sim.engine import SimulationEngine
from repro.sim.parallel import RunSpec
from tests.oracles.replay import check_recorders, recorders_made


class TestFig2:
    def test_run_and_render(self):
        result = fig2_storage_requirements.execute(RunSpec("fig2", seed=11, horizon_days=120.0))
        assert result.series
        totals = [total for _t, total in result.series]
        assert totals == sorted(totals)
        assert result.fill_day_80 is not None
        text = fig2_storage_requirements.render(result)
        assert "Figure 2" in text and "Q1" in text


class TestFig3:
    def test_series_per_capacity_and_policy(self):
        result = fig3_lifetimes.execute(
            RunSpec("fig3", {"capacities_gib": (8,)}, seed=11, horizon_days=120.0)
        )
        assert set(result.series) == {
            (8, "temporal-importance"), (8, "no-importance"), (8, "palimpsest")
        }
        text = fig3_lifetimes.render(result)
        assert "Figure 3" in text and "palimpsest" in text


class TestFig4:
    def test_rejection_monotonicity(self):
        result = fig4_rejections.execute(
            RunSpec("fig4", {"capacities_gib": (8,)}, seed=11, horizon_days=120.0)
        )
        for series in result.cumulative.values():
            counts = [c for _t, c in series]
            assert counts == sorted(counts)
        assert result.totals[(8, "palimpsest")] == 0
        assert "Figure 4" in fig4_rejections.render(result)


class TestFig5:
    def test_three_windows_estimated(self):
        result = fig5_timeconstant.execute(
            RunSpec("fig5", {"capacity_gib": 8}, seed=11, horizon_days=120.0)
        )
        assert set(result.series) == {"hour", "day", "month"}
        assert result.series["hour"].points
        assert "Breusch-Pagan" in fig5_timeconstant.render(result) or result.daily_bp is None


class TestFig6:
    def test_density_bounds(self):
        result = fig6_density.execute(
            RunSpec("fig6", {"capacities_gib": (8,)}, seed=11, horizon_days=120.0)
        )
        for series in result.series.values():
            assert all(0.0 <= d <= 1.0 for _t, d in series)
        assert "Figure 6" in fig6_density.render(result)


class TestFig7:
    def test_snapshot_in_band(self):
        with recorders_made() as recorders:
            result = fig7_cdf.execute(
                RunSpec(
                    "fig7", {"capacity_gib": 8, "band": (0.75, 0.95)}, seed=11, horizon_days=200.0
                )
            )
        check_recorders(recorders)
        assert 0.75 <= result.density_at_snapshot <= 0.95
        assert result.cdf[-1][1] == pytest.approx(1.0)
        assert 0.0 < result.fraction_importance_one < 1.0
        assert "Figure 7" in fig7_cdf.render(result)

    def test_unreachable_band_raises(self):
        with pytest.raises(RuntimeError, match="never entered"):
            fig7_cdf.execute(
                RunSpec(
                    "fig7",
                    {"capacity_gib": 8, "band": (0.9999, 1.0)},
                    seed=11,
                    horizon_days=3.0,
                )
            )


class TestFig8:
    def test_trace_and_landmarks(self):
        result = fig8_downloads.execute(RunSpec("fig8", seed=3))
        assert result.trace
        assert result.peak_downloads >= result.mean_in_term
        assert result.mean_after_term < result.mean_in_term
        assert "Figure 8" in fig8_downloads.render(result)


class TestTable1:
    def test_rows_match_paper(self):
        result = table1_parameters.execute(RunSpec("table1"))
        rows = {term: (begin, persist, wane) for term, begin, persist, wane in result.rows}
        assert rows["Spring"] == (8, "120 - today", 730.0)
        assert rows["Summer"] == (150, "210 - today", 365.0)
        assert rows["Fall"] == (248, "360 - today", 850.0)
        assert "Table 1" in table1_parameters.render(result)


class TestFig9:
    def test_creator_series(self):
        result = fig9_lecture_lifetimes.execute(
            RunSpec("fig9", {"capacities_gib": (8,)}, seed=11, horizon_days=500.0)
        )
        assert (8, "university") in result.series
        assert (8, "student") in result.series
        assert "Figure 9" in fig9_lecture_lifetimes.render(result)


class TestFig10:
    def test_policies_compared(self):
        result = fig10_reclamation_importance.execute(
            RunSpec("fig10", {"capacities_gib": (8,)}, seed=11, horizon_days=500.0)
        )
        assert (8, "temporal-importance") in result.series
        assert (8, "palimpsest") in result.series
        assert "Figure 10" in fig10_reclamation_importance.render(result)


class TestFig11:
    def test_lecture_time_constants(self):
        result = fig11_lecture_timeconstant.execute(
            RunSpec("fig11", {"capacity_gib": 8}, seed=11, horizon_days=400.0)
        )
        assert result.series["day"].points
        assert "Figure 11" in fig11_lecture_timeconstant.render(result)


class TestFig12:
    def test_density_series(self):
        result = fig12_lecture_density.execute(
            RunSpec("fig12", {"capacities_gib": (8,)}, seed=11, horizon_days=500.0)
        )
        assert all(0.0 <= d <= 1.0 for _t, d in result.series[8])
        assert "Figure 12" in fig12_lecture_density.render(result)


class TestSec53:
    def test_scaled_cluster_summary(self):
        result = sec53_university.execute(
            RunSpec(
                "sec53",
                {"node_capacities_gib": (8,), "scale": 0.005},
                seed=11,
                horizon_days=150.0,
            )
        )
        stats = result.stats[8]
        assert stats.nodes == result.nodes
        assert stats.placed > 0
        assert 0.0 <= stats.mean_density <= 1.0
        assert "Section 5.3" in sec53_university.render(result)


class TestOffGridHorizon:
    """A horizon off the whole minutes (10.0001 days is 14400.144 minutes)
    is refused before anything is dispatched, by the drivers that read
    their units at the horizon and by ``SimulationEngine.run``."""

    @pytest.mark.parametrize("name", ["sec53", "fig6", "fig7", "ext-churn", "ext-refresh"])
    def test_refused_before_the_first_dispatch(self, name, monkeypatch):
        monkeypatch.setattr(
            SimulationEngine, "_loop", lambda *args: pytest.fail("the run dispatched")
        )
        with pytest.raises(SimulationError, match=r"14400\.144"):
            registry.run_experiment(RunSpec(name, {}, seed=1, horizon_days=10.0001))

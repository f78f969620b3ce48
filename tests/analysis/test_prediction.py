"""Tests for longevity prediction from the density signal."""

import pytest

from repro.analysis.prediction import (
    longevity_margin,
    margin_correlation,
    prediction_pairs,
    PredictionPair,
)
from repro.core.density import DensitySample
from repro.core.store import EvictionRecord
from repro.units import days
from tests.conftest import make_obj


def sample(t, density):
    return DensitySample(
        t=t, density=density, used_bytes=0, capacity_bytes=1, resident_count=0
    )


def eviction(arrival_day, evict_day, reason="preempted"):
    obj = make_obj(1.0, t_arrival=days(arrival_day))
    return EvictionRecord(
        object_id=obj.object_id,
        creator=obj.creator,
        size=obj.size,
        t_arrival=obj.t_arrival,
        lifetime=obj.lifetime,
        t_evicted=days(evict_day),
        importance_at_eviction=obj.importance_at(days(evict_day)),
        reason=reason,
    )


class TestLongevityMargin:
    def test_positive_when_object_outranks_store(self):
        assert longevity_margin(1.0, 0.6) == pytest.approx(0.4)

    def test_negative_when_store_is_denser(self):
        assert longevity_margin(0.3, 0.8) == pytest.approx(-0.5)


class TestPredictionPairs:
    def test_joins_density_at_arrival(self):
        samples = [sample(0.0, 0.1), sample(days(10), 0.8)]
        records = [eviction(5, 20), eviction(12, 25)]
        pairs = prediction_pairs(records, samples)
        assert len(pairs) == 2
        assert pairs[0].density_at_arrival == 0.1
        assert pairs[1].density_at_arrival == 0.8
        assert pairs[0].margin == pytest.approx(0.9)

    def test_arrival_before_first_sample_counts_empty(self):
        samples = [sample(days(5), 0.9)]
        pairs = prediction_pairs([eviction(1, 20)], samples)
        assert pairs[0].density_at_arrival == 0.0

    def test_only_preemptions_scored(self):
        samples = [sample(0.0, 0.5)]
        records = [eviction(0, 10, reason="manual"), eviction(0, 10)]
        assert len(prediction_pairs(records, samples)) == 1

    def test_satisfaction_in_unit_interval(self):
        samples = [sample(0.0, 0.5)]
        for pair in prediction_pairs([eviction(0, 10), eviction(0, 45)], samples):
            assert 0.0 <= pair.satisfaction <= 1.0


class TestMarginCorrelation:
    def make_pairs(self, margins, satisfactions):
        return [
            PredictionPair(object_id=f"o{i}", margin=m, satisfaction=s,
                           density_at_arrival=0.0)
            for i, (m, s) in enumerate(zip(margins, satisfactions))
        ]

    def test_positive_association_detected(self):
        margins = [i / 10 for i in range(10)]
        satisfactions = [0.1 + 0.08 * i for i in range(10)]
        stats = margin_correlation(self.make_pairs(margins, satisfactions))
        assert stats["pearson_r"] > 0.95
        assert stats["spearman_r"] > 0.95

    def test_rejects_tiny_or_degenerate_samples(self):
        with pytest.raises(ValueError):
            margin_correlation(self.make_pairs([0.1, 0.2], [0.1, 0.2]))
        with pytest.raises(ValueError):
            margin_correlation(self.make_pairs([0.5] * 5, [0.1, 0.2, 0.3, 0.4, 0.5]))


class TestEndToEnd:
    def test_margin_predicts_satisfaction_in_a_real_run(self):
        """The paper's feedback loop works: objects annotated above the
        prevailing density achieve more of their requested lifetime."""
        from repro.experiments.common import SingleAppSetup, run_single_app_scenario

        scenario = run_single_app_scenario(
            SingleAppSetup(capacity_gib=20, horizon_days=200.0, seed=3)
        )
        pairs = prediction_pairs(
            scenario.recorder.evictions, scenario.recorder.density_samples
        )
        # Mixed margins only exist while the density ramps up; require a
        # meaningful sample and a non-negative rank association.
        assert len(pairs) > 50
        stats = margin_correlation(pairs)
        assert stats["spearman_r"] > 0.0

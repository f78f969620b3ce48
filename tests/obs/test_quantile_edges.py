"""Pin the histogram-quantile edge cases (empty, single bucket, q=0/1).

These behaviours are contractual: ``metrics_summary``, the merged
serving shards and the alert engine's ``p<N>`` signals all quantile
exported snapshots, so a change here silently shifts every percentile.
"""

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import Histogram, quantile_from_cumulative


class TestQuantileFromCumulative:
    def test_empty_histogram_is_zero(self):
        assert quantile_from_cumulative((1.0, 2.0), (0, 0), 0, 0.0, 0.0, 0.5) == 0.0

    def test_q_zero_is_observed_min(self):
        assert quantile_from_cumulative((1.0, 2.0), (3, 5), 5, 0.25, 1.8, 0.0) == 0.25

    def test_q_one_is_observed_max(self):
        assert quantile_from_cumulative((1.0, 2.0), (3, 5), 5, 0.25, 1.8, 1.0) == 1.8

    def test_single_bucket_interpolates_within_observed_range(self):
        value = quantile_from_cumulative((10.0,), (4,), 4, 2.0, 9.0, 0.5)
        assert 2.0 <= value <= 9.0

    def test_mass_beyond_last_bound_falls_to_max(self):
        # Everything landed in the implicit +Inf bucket.
        assert quantile_from_cumulative((1.0,), (0,), 3, 5.0, 7.0, 0.9) == 7.0

    def test_empty_leading_bucket_does_not_skew(self):
        # First bucket empty: the p50 must come from the populated one.
        value = quantile_from_cumulative((1.0, 2.0), (0, 10), 10, 1.2, 1.9, 0.5)
        assert 1.2 <= value <= 1.9

    def test_estimates_clamped_into_observed_range(self):
        # Bucket bounds far wider than observations cannot widen the answer.
        value = quantile_from_cumulative((100.0,), (2,), 2, 3.0, 4.0, 0.99)
        assert 3.0 <= value <= 4.0

    def test_out_of_range_q_rejected(self):
        for q in (-0.01, 1.01):
            with pytest.raises(ObservabilityError):
                quantile_from_cumulative((1.0,), (1,), 1, 0.0, 1.0, q)


class TestHistogramQuantileEdges:
    def _hist(self, *values):
        h = Histogram("h", "test", (), buckets=(1.0, 2.0, 4.0))
        for v in values:
            h.observe(v)
        return h

    def test_empty_histogram_quantiles_are_zero(self):
        h = self._hist()
        for q in (0.0, 0.5, 1.0):
            assert h.quantile(q) == 0.0

    def test_single_observation_collapses_all_quantiles(self):
        h = self._hist(1.5)
        for q in (0.0, 0.5, 1.0):
            assert h.quantile(q) == 1.5

    def test_q_extremes_bracket_interior_quantiles(self):
        h = self._hist(0.5, 1.5, 3.0, 8.0)
        assert h.quantile(0.0) == 0.5
        assert h.quantile(1.0) == 8.0
        assert h.quantile(0.0) <= h.quantile(0.5) <= h.quantile(1.0)

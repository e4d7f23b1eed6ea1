"""Shared summary statistics used across the bench suite."""

import pytest

from repro.bench.stats import (best_inner_us, latency_summary, percentile,
                               summarize_times)
from repro.errors import ExperimentError


class TestPercentile:
    def test_nearest_rank_endpoints(self):
        xs = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(xs, 0.0) == 1.0
        assert percentile(xs, 1.0) == 5.0
        assert percentile(xs, 0.5) == 3.0

    def test_single_sample(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_is_sorted_skips_the_sort(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert percentile(xs, 0.75, is_sorted=True) == \
            percentile([4.0, 2.0, 3.0, 1.0], 0.75)

    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_bad_q_rejected(self):
        with pytest.raises(ExperimentError):
            percentile([1.0], 1.5)


class TestSummaries:
    def test_summarize_times_median_and_spread(self):
        best, median, spread = summarize_times([3.0, 1.0, 2.0])
        assert best == 1.0
        assert median == 2.0
        assert spread == pytest.approx(2.0)   # max - min

    def test_latency_summary_scaled(self):
        s = latency_summary([0.001, 0.002, 0.003], scale=1e3,
                            suffix="_ms")
        assert s["n"] == 3
        assert s["p50_ms"] == pytest.approx(2.0)
        assert s["max_ms"] == pytest.approx(3.0)
        assert s["mean_ms"] == pytest.approx(2.0)

    def test_latency_summary_empty(self):
        assert latency_summary([]) == {"n": 0}

    def test_best_inner_us_is_min_of_rounds(self):
        calls = []
        out = best_inner_us(lambda: calls.append(1), inner=4, repeats=3)
        assert out >= 0
        # 1 warmup call + 3 timed rounds of 4 calls
        assert len(calls) == 13

"""Domain decomposition tests."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.parallel import slab_ranges


class TestSlabRanges:
    @given(st.integers(0, 10_000), st.integers(1, 4096), st.integers(1, 16))
    def test_partition_properties(self, n, slab, w):
        ranges = slab_ranges(n, slab, w)
        covered = 0
        for a, b in ranges:
            assert a == covered and b > a
            covered = b
        assert covered == n
        # No slab exceeds the cache budget.
        assert all(b - a <= slab for a, b in ranges)

    @given(st.integers(1, 10_000), st.integers(1, 4096), st.integers(1, 16))
    def test_enough_slabs_for_workers(self, n, slab, w):
        # When there is work for every worker, every worker gets some.
        assert len(slab_ranges(n, slab, w)) >= min(n, w)

    def test_empty(self):
        assert slab_ranges(0, 128, 4) == []

    def test_workers_exceed_items(self):
        # 3 items, 8 workers: one item per slab, never empty slabs.
        assert slab_ranges(3, 128, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_cache_budget_caps_slab(self):
        assert slab_ranges(10, 4, 1) == [(0, 4), (4, 8), (8, 10)]

    def test_worker_count_shrinks_slab(self):
        # A single cache-sized slab would starve the second worker.
        assert slab_ranges(10, 100, 2) == [(0, 5), (5, 10)]

    def test_backend_independent_of_worker_count_when_slab_small(self):
        # Cache budget already yields >= n_workers slabs: plan unchanged.
        assert slab_ranges(100, 10, 2) == slab_ranges(100, 10, 1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            slab_ranges(-1, 4, 1)
        with pytest.raises(ConfigurationError):
            slab_ranges(10, 0, 1)
        with pytest.raises(ConfigurationError):
            slab_ranges(10, 4, 0)

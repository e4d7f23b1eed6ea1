"""PlanCache: LRU behaviour, shape keys, plan lifecycle on eviction."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.plan import PlanCache, shape_key


class FakePlan:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class TestLRU:
    def test_miss_then_hit(self):
        cache = PlanCache(maxsize=2)
        assert cache.get("k") is None
        plan = FakePlan()
        cache.put("k", plan)
        assert cache.get("k") is plan
        assert cache.stats == {"size": 1, "maxsize": 2, "hits": 1,
                               "misses": 1, "evictions": 0}

    def test_eviction_is_least_recently_used(self):
        cache = PlanCache(maxsize=2)
        a, b, c = FakePlan(), FakePlan(), FakePlan()
        cache.put("a", a)
        cache.put("b", b)
        cache.get("a")          # bump a; b is now LRU
        cache.put("c", c)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats["evictions"] == 1

    def test_evicted_plan_is_closed(self):
        cache = PlanCache(maxsize=1)
        a, b = FakePlan(), FakePlan()
        cache.put("a", a)
        cache.put("b", b)
        assert a.closed and not b.closed

    def test_clear_closes_everything(self):
        cache = PlanCache(maxsize=4)
        plans = [FakePlan() for _ in range(3)]
        for i, p in enumerate(plans):
            cache.put(i, p)
        cache.clear()
        assert len(cache) == 0
        assert all(p.closed for p in plans)

    def test_maxsize_validated(self):
        with pytest.raises(ConfigurationError):
            PlanCache(maxsize=0)

    def test_pop_closes_and_drops(self):
        cache = PlanCache(maxsize=4)
        a = FakePlan()
        cache.put("a", a)
        assert cache.pop("a") is True
        assert a.closed
        assert "a" not in cache and len(cache) == 0
        # Popping an absent key is a no-op, not an error.
        assert cache.pop("a") is False


class TestShapeKey:
    def test_same_shape_different_numbers_share_a_key(self):
        a = {"x": np.zeros(8), "n": 4}
        b = {"x": np.ones(8), "n": 4}
        assert shape_key(a) == shape_key(b)

    def test_width_change_changes_the_key(self):
        a = {"x": np.zeros(8)}
        b = {"x": np.zeros(9)}
        assert shape_key(a) != shape_key(b)

    def test_dtype_change_changes_the_key(self):
        assert (shape_key(np.zeros(4))
                != shape_key(np.zeros(4, dtype=np.float32)))

    def test_scalar_parameters_shape_the_key(self):
        assert shape_key({"steps": 100}) != shape_key({"steps": 200})

    def test_key_is_hashable(self):
        payload = {"x": np.zeros(4), "opts": [1, 2, 3], "name": "bs"}
        hash(shape_key(payload))

    def test_option_batch_rate_and_vol_shape_the_key(self):
        # rate/vol are baked into compiled dispatch consts, so two
        # batches differing only there must not share a plan.
        from repro.pricing import OptionBatch

        def batch(rate, vol):
            return OptionBatch(np.full(8, 100.0), np.full(8, 95.0),
                               np.full(8, 1.0), rate, vol)

        base = shape_key({"soa": batch(0.05, 0.2)})
        assert base == shape_key({"soa": batch(0.05, 0.2)})
        assert base != shape_key({"soa": batch(0.06, 0.2)})
        assert base != shape_key({"soa": batch(0.05, 0.3)})
        # Per-option columns are streamed data: their values never key
        # a plan, but the form does (a float batch compiles constants).
        cols = shape_key({"soa": batch(np.full(8, 0.05), np.full(8, 0.2))})
        assert cols == shape_key(
            {"soa": batch(np.linspace(0.01, 0.08, 8), np.full(8, 0.3))})
        assert cols != base

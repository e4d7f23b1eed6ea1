"""Slab executor tests: planning, pooling, determinism."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.parallel import (DEFAULT_LLC_BYTES, SlabExecutor,
                            default_executor, host_llc_bytes)


class TestConstruction:
    def test_backend_validated(self):
        with pytest.raises(ConfigurationError):
            SlabExecutor("cuda")
        with pytest.raises(ConfigurationError):
            SlabExecutor("serial", n_workers=0)

    def test_process_backend_accepted(self):
        with SlabExecutor("process", n_workers=2) as ex:
            assert ex.backend == "process"
            assert ex.mp_context in ("fork", "spawn", "forkserver")

    def test_defaults(self):
        with SlabExecutor() as ex:
            assert ex.backend == "thread"
            assert ex.n_workers >= 1
            assert ex.slab_bytes > 0

    def test_host_llc_positive(self):
        assert host_llc_bytes() > 0
        assert host_llc_bytes(default=DEFAULT_LLC_BYTES) > 0


class TestPlan:
    def test_plan_covers_range(self):
        with SlabExecutor("serial", slab_bytes=1024) as ex:
            plan = ex.plan(1000, bytes_per_item=8)
            assert plan[0][0] == 0 and plan[-1][1] == 1000
            # 1024 B budget / 8 B per item = 128-element slabs.
            assert all(b - a <= 128 for a, b in plan)

    def test_plan_is_backend_independent(self):
        with SlabExecutor("serial", n_workers=1, slab_bytes=4096) as s, \
                SlabExecutor("thread", n_workers=1, slab_bytes=4096) as t:
            assert s.plan(10_000, 8) == t.plan(10_000, 8)

    def test_plan_empty(self):
        with SlabExecutor("serial") as ex:
            assert ex.plan(0) == []

    def test_compile_lanes_splits_for_workers_only_when_pooled(self):
        def body(arrays, consts, a, b, slab):
            arrays["out"][:] = slab

        for backend, inline_below, slabs in (
                ("serial", 0, ((0, 5), (5, 6))),          # cache budget
                ("thread", 0, ((0, 2), (2, 4), (4, 6))),  # one per worker
                ("thread", 1 << 20, ((0, 5), (5, 6)))):   # inline
            out = np.empty(6)
            with SlabExecutor(backend, n_workers=3, slab_bytes=40,
                              min_parallel_bytes=inline_below) as ex:
                assert ex.plan(6, 8) == [(0, 2), (2, 4), (4, 6)]
                dispatch = ex.compile_lanes(
                    body, 6, bytes_per_item=8, sliced={"out": out},
                    writes=("out",))
                assert dispatch.plan.slabs == slabs
                dispatch.run()
            assert out.tolist() == [i for i, (a, b) in enumerate(slabs)
                                    for _ in range(a, b)]


def _noop(arrays, consts, a, b, slab):
    return None


def _boom(arrays, consts, a, b, slab):
    return 1 / 0


class TestMapSlabs:
    """One-shot dispatch over the slab plan (``map_shm``)."""

    def test_serial_thread_identical_coverage(self):
        n = 10_000
        out_s = np.zeros(n)
        out_t = np.zeros(n)

        def kernel(arrays, consts, a, b, i):
            arrays["out"][:] = np.arange(a, b, dtype=float) * (i + 1)

        with SlabExecutor("serial", slab_bytes=8 * 1024) as s:
            s.map_shm(kernel, n, bytes_per_item=8, sliced={"out": out_s},
                      writes=("out",))
            assert s._pool is None           # serial never builds a pool
        with SlabExecutor("thread", n_workers=4, slab_bytes=8 * 1024) as t:
            t.map_shm(kernel, n, bytes_per_item=8, sliced={"out": out_t},
                      writes=("out",))
        # Same plan -> same slab indices -> bit-identical output.
        assert np.array_equal(out_s, out_t)

    def test_slab_index_sequential(self):
        with SlabExecutor("serial", slab_bytes=64) as ex:
            seen = ex.map_shm(lambda arrays, consts, a, b, i: i, 100,
                              bytes_per_item=8)
        assert seen == list(range(len(seen)))
        assert len(seen) > 1

    def test_empty_is_noop(self):
        with SlabExecutor("thread") as ex:
            assert ex.map_shm(_boom, 0, bytes_per_item=8) == []

    def test_worker_exception_propagates(self):
        with SlabExecutor("thread", n_workers=2) as ex:
            with pytest.raises(ZeroDivisionError):
                ex.map_shm(_boom, 10, bytes_per_item=8)
            # The failed one-shot still retired its dispatch.
            assert ex._live_dispatches == []


class TestStreams:
    def test_one_stream_per_slab(self):
        with SlabExecutor("serial", slab_bytes=1024) as ex:
            plan = ex.plan(1000, 8)
            streams = ex.streams(1000, bytes_per_item=8, seed=7)
            assert len(streams) == len(plan)

    def test_streams_backend_independent(self):
        kw = dict(slab_bytes=1024, n_workers=1)
        with SlabExecutor("serial", **kw) as s, \
                SlabExecutor("thread", **kw) as t:
            zs = [g.normals(64)
                  for g in s.streams(1000, 8, seed=7).normal_generators()]
            zt = [g.normals(64)
                  for g in t.streams(1000, 8, seed=7).normal_generators()]
        for a, b in zip(zs, zt):
            assert np.array_equal(a, b)


class TestPoolLifecycle:
    def test_pool_is_persistent(self):
        ex = SlabExecutor("thread", n_workers=2)
        try:
            ex.map_shm(_noop, 10, 8)
            pool = ex._pool
            assert pool is not None
            ex.map_shm(_noop, 10, 8)
            assert ex._pool is pool  # no churn between calls
        finally:
            ex.close()

    def test_close_idempotent_and_reuse_rejected(self):
        ex = SlabExecutor("thread")
        ex.map_shm(_noop, 4, 8)
        ex.close()
        ex.close()
        with pytest.raises(ConfigurationError):
            ex.map_shm(_noop, 4, 8)

    def test_context_manager_closes(self):
        with SlabExecutor("thread") as ex:
            ex.map_shm(_noop, 4, 8)
        assert ex._pool is None

    def test_default_executor_singleton(self):
        a = default_executor()
        assert default_executor() is a
        a.close()
        b = default_executor()
        assert b is not a
        b.map_shm(_noop, 4, 8)

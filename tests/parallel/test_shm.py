"""Shared-memory staging tests: arena lifecycle, worker-side task
execution, map_shm cross-backend identity, and pool persistence."""

import os
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.parallel import ArraySpec, ShmArena, SlabExecutor, run_slab_task


def _scale(arrays, consts, a, b, slab):
    """Module-level slab body (picklable for the process backend)."""
    arrays["out"][:] = arrays["x"] * consts["k"]
    return slab


def _offset_sum(arrays, consts, a, b, slab):
    """Uses the whole shared array plus the slab's sliced view."""
    arrays["out"][:] = arrays["x"] + arrays["bias"].sum()
    return (a, b)


class TestArraySpec:
    def test_pickle_roundtrip(self):
        spec = ArraySpec("seg_name", (4, 2), "<f8", sliced=True)
        back = pickle.loads(pickle.dumps(spec))
        assert (back.segment, back.shape, back.dtype, back.sliced) == \
            ("seg_name", (4, 2), "<f8", True)


class TestShmArena:
    def test_stage_and_view_roundtrip(self):
        arena = ShmArena()
        try:
            x = np.arange(16, dtype=np.float64)
            spec = arena.stage("x", x)
            assert np.array_equal(arena.view(spec), x)
            # The staged copy is independent of the caller's buffer.
            x[0] = -1.0
            assert arena.view(spec)[0] == 0.0
        finally:
            arena.close()

    def test_stage_without_copy_reserves_only(self):
        arena = ShmArena()
        try:
            out = np.full(8, 7.0)
            spec = arena.stage("out", out, copy=False)
            view = arena.view(spec)
            assert view.shape == out.shape
            view[:] = 1.5
            assert np.all(arena.view(spec) == 1.5)
            assert np.all(out == 7.0)       # caller untouched
        finally:
            arena.close()

    def test_segment_reused_when_it_fits(self):
        arena = ShmArena()
        try:
            big = arena.stage("x", np.zeros(64)).segment
            small = arena.stage("x", np.zeros(8)).segment
            assert small == big             # same generation, no realloc
        finally:
            arena.close()

    def test_growth_bumps_generation(self):
        arena = ShmArena()
        try:
            first = arena.stage("x", np.zeros(8)).segment
            second = arena.stage("x", np.zeros(1024)).segment
            assert first != second
            assert first.rsplit("g", 1)[0] == second.rsplit("g", 1)[0]
            # Geometric growth: room beyond the exact request.
            third = arena.stage("x", np.zeros(1025)).segment
            fourth = arena.stage("x", np.zeros(1500)).segment
            assert third == fourth
        finally:
            arena.close()

    def test_names_are_process_unique(self):
        a1, a2 = ShmArena(), ShmArena()
        try:
            s1 = a1.stage("x", np.zeros(4)).segment
            s2 = a2.stage("x", np.zeros(4)).segment
            assert s1 != s2
            assert str(os.getpid()) in s1
        finally:
            a1.close()
            a2.close()

    def test_close_is_idempotent_and_final(self):
        arena = ShmArena()
        arena.stage("x", np.zeros(4))
        arena.close()
        arena.close()
        with pytest.raises(ConfigurationError):
            arena.segment("x", 32)

    def test_nbytes_validated(self):
        arena = ShmArena()
        try:
            with pytest.raises(ConfigurationError):
                arena.segment("x", 0)
        finally:
            arena.close()


class TestRunSlabTask:
    """Worker-side execution, driven in-process (same code path)."""

    def test_sliced_and_shared_views(self):
        arena = ShmArena()
        try:
            x = np.arange(10, dtype=np.float64)
            bias = np.array([1.0, 2.0])
            out = np.zeros(10)
            specs = {
                "x": arena.stage("x", x),
                "bias": arena.stage("bias", bias),
                "out": arena.stage("out", out, copy=False),
            }
            specs["x"].sliced = True
            specs["out"].sliced = True
            ret = run_slab_task(_offset_sum, specs, {}, 2, 6, 0)
            assert ret == (2, 6)
            got = arena.view(specs["out"])
            assert np.array_equal(got[2:6], x[2:6] + 3.0)
            assert np.all(got[:2] == 0) and np.all(got[6:] == 0)
        finally:
            arena.close()


class TestMapShm:
    @pytest.fixture()
    def executors(self):
        exs = {b: SlabExecutor(b, n_workers=2, slab_bytes=256)
               for b in ("serial", "thread", "process")}
        yield exs
        for ex in exs.values():
            ex.close()

    def test_backends_bit_identical(self, executors):
        x = np.linspace(0.0, 1.0, 300)
        outs = {}
        for name, ex in executors.items():
            out = np.zeros_like(x)
            slabs = ex.map_shm(_scale, x.shape[0], bytes_per_item=16,
                               sliced={"x": x, "out": out},
                               writes=("out",), consts={"k": 3.0})
            assert slabs == sorted(slabs)   # slab-order results
            outs[name] = out
        assert np.array_equal(outs["serial"], x * 3.0)
        for name in ("thread", "process"):
            assert outs[name].tobytes() == outs["serial"].tobytes()

    def test_shared_arrays_and_per_slab(self, executors):
        x = np.arange(40, dtype=np.float64)
        bias = np.array([0.5, 0.25])
        for ex in executors.values():
            out = np.zeros_like(x)
            ex.map_shm(_offset_sum, x.shape[0], bytes_per_item=64,
                       sliced={"x": x, "out": out},
                       shared={"bias": bias}, writes=("out",))
            assert np.array_equal(out, x + 0.75)

    def test_sliced_shape_validated(self, executors):
        with pytest.raises(ConfigurationError):
            executors["serial"].map_shm(
                _scale, 10, sliced={"x": np.zeros(4)}, consts={"k": 1.0})

    def test_writes_names_validated(self, executors):
        with pytest.raises(ConfigurationError):
            executors["serial"].map_shm(
                _scale, 4, sliced={"x": np.zeros(4)}, writes=("nope",),
                consts={"k": 1.0})

    def test_closed_executor_rejects_dispatch(self):
        ex = SlabExecutor("process", n_workers=2)
        ex.close()
        with pytest.raises(ConfigurationError):
            ex.map_shm(_scale, 4, sliced={"x": np.zeros(4)},
                       consts={"k": 1.0})


class TestPoolPersistence:
    """Regression (satellite): pools and arenas are reused across
    dispatches — no per-call churn.  (Segments are not: a one-shot
    stages into roles of its own and releases them when it retires.)"""

    def test_process_pool_reused_across_calls(self):
        x = np.arange(600, dtype=np.float64)
        with SlabExecutor("process", n_workers=2, slab_bytes=512) as ex:
            assert ex.n_slabs(x.shape[0], 16) > 1    # really pooled
            out = np.zeros_like(x)
            ex.map_shm(_scale, x.shape[0], bytes_per_item=16,
                       sliced={"x": x, "out": out},
                       writes=("out",), consts={"k": 2.0})
            pool, arena = ex._pool, ex._arena
            assert pool is not None and arena is not None
            for k in (3.0, 4.0):
                ex.map_shm(_scale, x.shape[0], bytes_per_item=16,
                           sliced={"x": x, "out": out},
                           writes=("out",), consts={"k": k})
                assert np.array_equal(out, x * k)
                # Same pool object, same arena.
                assert ex._pool is pool
                assert ex._arena is arena

    def test_thread_pool_reused_across_calls(self):
        with SlabExecutor("thread", n_workers=2, slab_bytes=512) as ex:
            x = np.arange(600, dtype=np.float64)
            out = np.zeros_like(x)
            ex.map_shm(_scale, x.shape[0], bytes_per_item=16,
                       sliced={"x": x, "out": out},
                       writes=("out",), consts={"k": 2.0})
            pool = ex._pool
            assert pool is not None
            ex.map_shm(_scale, x.shape[0], bytes_per_item=16,
                       sliced={"x": x, "out": out},
                       writes=("out",), consts={"k": 5.0})
            assert ex._pool is pool
            assert np.array_equal(out, x * 5.0)

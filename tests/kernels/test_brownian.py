"""Brownian-bridge kernel tests: exact tier equality, Wiener statistics,
interleaving, Fig. 6 shape."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import registry
from repro.config import SMALL_SIZES
from repro.errors import ConfigurationError
from repro.kernels.brownian import (BridgeSchedule, bridge_covariance,
                                    build, build_cache_to_cache,
                                    build_interleaved, build_reference,
                                    build_vectorized, default_block_paths,
                                    make_schedule)
from repro.kernels.brownian.parallel import compile_build_parallel
from repro.kernels.brownian.vectorized import (block_paths, bridge_blocks,
                                               bridge_workspace,
                                               randoms_to_path_major)
from repro.parallel import SlabExecutor
from repro.plan import WorkspaceArena, one_shot
from repro.rng import MT19937, NormalGenerator


@pytest.fixture(scope="module")
def schedule():
    return make_schedule(6)  # 64 steps, the paper's workload


@pytest.fixture(scope="module")
def randoms():
    return NormalGenerator(MT19937(77)).normals(256 * 64)


class TestSchedule:
    def test_sizes(self, schedule):
        assert schedule.n_steps == 64
        assert schedule.n_points == 65
        assert schedule.randoms_per_path() == 64

    def test_level_table_shapes(self, schedule):
        for d in range(schedule.depth):
            assert schedule.w_l[d].shape == (1 << d,)
            assert schedule.w_r[d].shape == (1 << d,)
            assert schedule.sig[d].shape == (1 << d,)

    def test_uniform_grid_coefficients(self, schedule):
        """Dyadic uniform grid: w = 1/2 and sig_d = sqrt(T/2^(d+2))."""
        for d in range(schedule.depth):
            assert np.allclose(schedule.w_l[d], 0.5)
            assert np.allclose(schedule.w_r[d], 0.5)
            assert np.allclose(schedule.sig[d],
                               np.sqrt(1.0 / (1 << (d + 2))))

    def test_last_sig(self, schedule):
        assert schedule.last_sig == pytest.approx(1.0)

    def test_horizon_scaling(self):
        s4 = make_schedule(3, horizon=4.0)
        assert s4.last_sig == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_schedule(0)
        with pytest.raises(ConfigurationError):
            make_schedule(3, horizon=-1.0)

    @pytest.mark.parametrize("depth, horizon", [
        (3, math.nan), (3, math.inf), (3, -math.inf),
        (2.5, 1.0), (True, 1.0), ("3", 1.0), (3, "1.0")],
        ids=["nan", "inf", "-inf", "depth-2.5", "depth-True",
             "depth-str", "horizon-str"])
    def test_rejects_non_finite_horizon_and_non_int_depth(self, depth,
                                                          horizon):
        with pytest.raises(ConfigurationError):
            make_schedule(depth, horizon=horizon)

    def test_numpy_integer_depth_accepted(self):
        sch = make_schedule(np.int64(3), horizon=np.float64(2.0))
        assert sch.n_steps == 8 and type(sch.depth) is int


class TestUniformDetection:
    """Which level body runs: a silent fall-back to the general body
    would pass every equality test, so the detection is pinned."""

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_dyadic_schedule_is_uniform(self, depth):
        sch = make_schedule(depth)
        assert sch.uniform_sig == tuple(float(sg[0]) for sg in sch.sig)

    def test_workload_schedule_is_uniform(self):
        payload = registry.workload("brownian").build(SMALL_SIZES, seed=1)
        assert payload["schedule"].uniform_sig is not None

    @pytest.mark.parametrize("depth", range(2, 9))
    def test_inexact_horizon_is_not_uniform(self, depth):
        assert make_schedule(depth, horizon=1.3).uniform_sig is None

    def test_replace_rederives(self):
        base = make_schedule(4)
        scaled = dataclasses.replace(
            base, sig=tuple(2.0 * sg for sg in base.sig))
        assert scaled.uniform_sig == tuple(2.0 * s for s in base.uniform_sig)

    def test_sig_varying_within_a_level_is_not_uniform(self):
        base = make_schedule(4)
        sch = dataclasses.replace(
            base, sig=base.sig[:3] + (base.sig[3] * np.linspace(0.5, 1.5, 8),))
        assert all((w == 0.5).all() for w in sch.w_l + sch.w_r)
        assert sch.uniform_sig is None
        z = NormalGenerator(MT19937(9)).normals(50 * sch.n_steps)
        assert np.array_equal(build_vectorized(sch, z),
                              build_reference(sch, z))

    @given(st.integers(1, 8), st.integers(-3, 3), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_uniform_body_equals_reference(self, depth, k, n_paths):
        sch = make_schedule(depth, horizon=2.0 ** k)
        assert sch.uniform_sig is not None
        z = NormalGenerator(MT19937(depth * 1000 + n_paths)).normals(
            n_paths * sch.randoms_per_path())
        assert np.array_equal(build_vectorized(sch, z),
                              build_reference(sch, z))


class TestTierEquality:
    def test_vectorized_bitwise_equals_reference(self, schedule, randoms):
        ref = build_reference(schedule, randoms)
        vec = build_vectorized(schedule, randoms)
        assert np.array_equal(ref, vec)

    def test_interleaved_bitwise_equals_reference(self, schedule, randoms):
        ref = build_reference(schedule, randoms)
        idx = {"i": 0}

        def source(n):
            out = randoms[idx["i"]:idx["i"] + n]
            idx["i"] += n
            return out

        il = build_interleaved(schedule, source, 256, block_paths=48)
        assert np.array_equal(ref, il)

    def test_cache_to_cache_feeds_identical_blocks(self, schedule, randoms):
        ref = build_reference(schedule, randoms)
        idx = {"i": 0}

        def source(n):
            out = randoms[idx["i"]:idx["i"] + n]
            idx["i"] += n
            return out

        seen = []
        build_cache_to_cache(schedule, source, 256, 100, seen.append)
        assert all(b.shape[0] == schedule.n_points for b in seen)
        assert np.array_equal(np.hstack(seen), ref)

    @given(st.integers(1, 5), st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_equality_any_depth(self, depth, n_paths):
        sch = make_schedule(depth)
        z = NormalGenerator(MT19937(depth * 100 + n_paths)).normals(
            n_paths * sch.randoms_per_path())
        assert np.array_equal(build_reference(sch, z),
                              build_vectorized(sch, z))

    def test_stream_size_validated(self, schedule):
        with pytest.raises(ConfigurationError):
            build_reference(schedule, np.zeros(63))
        with pytest.raises(ConfigurationError):
            build_vectorized(schedule, np.zeros((2, 64)))

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_out_dtype_validated(self, schedule, dtype):
        out = np.zeros((schedule.n_points, 2), dtype=dtype)
        with pytest.raises(ConfigurationError):
            build_vectorized(schedule, np.ones(2 * 64), out=out)


class TestBridgeCore:
    """The one in-place, cache-blocked core behind every vectorized
    tier is the scalar reference bit for bit."""

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_equals_reference_every_depth(self, depth):
        # A horizon the dyadic grid cannot represent exactly.
        sch = make_schedule(depth, horizon=1.3)
        z = NormalGenerator(MT19937(depth)).normals(37 * sch.n_steps)
        assert np.array_equal(build_vectorized(sch, z),
                              build_reference(sch, z))

    def test_equals_reference_for_arbitrary_weights(self):
        # Same operands in the same order, so not only for w = 1/2.
        base = make_schedule(4)
        gen = np.random.default_rng(5)
        sch = dataclasses.replace(
            base,
            w_l=tuple(gen.uniform(0.1, 0.9, w.shape) for w in base.w_l),
            w_r=tuple(gen.uniform(0.1, 0.9, w.shape) for w in base.w_r),
            sig=tuple(gen.uniform(0.1, 0.9, w.shape) for w in base.sig))
        z = NormalGenerator(MT19937(8)).normals(50 * sch.n_steps)
        assert np.array_equal(build_vectorized(sch, z),
                              build_reference(sch, z))

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0),
                                               (1, 1), (3, 7)])
    def test_block_edges(self, schedule, blocks, extra):
        n_paths = blocks * block_paths(schedule) + extra
        z = NormalGenerator(MT19937(n_paths)).normals(n_paths * 64)
        assert np.array_equal(build_vectorized(schedule, z),
                              build_reference(schedule, z))

    def test_reused_workspace_leaks_nothing(self, schedule):
        width = block_paths(schedule)
        ws = bridge_workspace(schedule, width, WorkspaceArena().reserve)
        # Scaled draws and one scratch block on the uniform grid.
        assert sorted(ws) == ["t1", "z"]
        first = NormalGenerator(MT19937(1)).normals((width + 5) * 64)
        second = NormalGenerator(MT19937(2)).normals(9 * 64)
        out = np.full((65, width + 5), np.nan)
        bridge_blocks(schedule, randoms_to_path_major(schedule, first),
                      out, ws)
        # A narrower second build over the stale workspace of the first.
        bridge_blocks(schedule, randoms_to_path_major(schedule, second),
                      out[:, :9], ws)
        assert np.array_equal(out[:, :9], build_vectorized(schedule, second))
        assert not out[0].any()


def _source(randoms):
    """A normal source serving consecutive slices of ``randoms``."""
    cursor = [0]

    def draw(n):
        cursor[0] += n
        return randoms[cursor[0] - n:cursor[0]]
    return draw


def _every_tier(sch, z):
    """Every tier's paths on the stream ``z``, by tier name."""
    n_paths = z.size // sch.randoms_per_path()
    blocks = []
    build_cache_to_cache(sch, _source(z), n_paths, 100, blocks.append)
    with SlabExecutor("thread", n_workers=2, slab_bytes=64 * 1024) as ex:
        parallel = one_shot(compile_build_parallel, sch, z,
                            executor=ex).reshape(sch.n_points, n_paths)
    return {"reference": build_reference(sch, z),
            "vectorized": build_vectorized(sch, z),
            "interleaved": build_interleaved(sch, _source(z), n_paths, 48),
            "cache_to_cache": np.hstack(blocks),
            "parallel": parallel}


class TestStepMajor:
    """Every tier returns step-major ``(n_points, n_paths)`` paths: a
    row per grid point, a column per path."""

    #: (depth, horizon, n_paths) -> md5 of the path-major
    #: ``(n_paths, n_points)`` paths on ``MT19937(depth * 1000 +
    #: n_paths)`` normals, as the tiers built them before they went
    #: step-major: depths 1-8, dyadic and inexact horizons, ragged
    #: blocks on both sides of a block edge.
    PATH_MAJOR_MD5 = {
        (1, 1.0, 5): "94618675c643ad7bf3f414d678f317a6",
        (3, 1.3, 1017): "84eb1f56f66983d74824640a5bd8944b",
        (6, 1.0, 3473): "2db575d44ac7935208270095158b3648",
        (6, 1.3, 6951): "15362a8f8c7718c99e03ec36a629f1c9",
        (8, 2.0, 300): "19497f28d45a6ade84e126c14b038efd",
    }

    @pytest.mark.parametrize("case", sorted(PATH_MAJOR_MD5),
                             ids=lambda c: "d{}-T{}-n{}".format(*c))
    def test_transpose_is_the_path_major_build(self, case):
        depth, horizon, n_paths = case
        sch = make_schedule(depth, horizon)
        z = NormalGenerator(MT19937(depth * 1000 + n_paths)).normals(
            n_paths * sch.randoms_per_path())
        for tier, paths in _every_tier(sch, z).items():
            assert paths.shape == (sch.n_points, n_paths), tier
            path_major = np.ascontiguousarray(paths.T).tobytes()
            assert (hashlib.md5(path_major).hexdigest()
                    == self.PATH_MAJOR_MD5[case]), tier

    def test_registered_tiers_ravel_step_major(self):
        payload = registry.workload("brownian").build(SMALL_SIZES, seed=4)
        sch, z = payload["schedule"], payload["randoms"]
        want = build_reference(sch, z)
        assert want.shape == (sch.n_points, payload["n_paths"])
        with SlabExecutor("serial") as ex:
            for impl in registry.impls("brownian", backend="serial"):
                if impl.checked:
                    got = impl.fn(payload, ex)
                    assert np.array_equal(got, want.ravel()), impl.label


class TestWienerStatistics:
    @pytest.fixture(scope="class")
    def paths(self):
        sch = make_schedule(6)
        z = NormalGenerator(MT19937(3)).normals(60_000 * 64)
        return sch, build_vectorized(sch, z)

    def test_starts_at_zero(self, paths):
        _, p = paths
        assert np.all(p[0] == 0.0)

    def test_marginal_variance_is_t(self, paths):
        sch, p = paths
        t = np.linspace(0, 1, sch.n_points)
        for idx in (8, 16, 32, 64):
            assert p[idx].var() == pytest.approx(t[idx], rel=0.05)

    def test_covariance_is_min_s_t(self, paths):
        sch, p = paths
        idx = [16, 32, 48, 64]
        emp = np.cov(p[idx])
        t = np.linspace(0, 1, sch.n_points)
        theo = np.minimum.outer(t[idx], t[idx])
        assert np.max(np.abs(emp - theo)) < 0.02

    def test_increments_independent(self, paths):
        _, p = paths
        inc1 = p[16] - p[0]
        inc2 = p[32] - p[16]
        assert abs(np.corrcoef(inc1, inc2)[0, 1]) < 0.02

    def test_increments_gaussian_mean_zero(self, paths):
        _, p = paths
        inc = p[32] - p[16]
        assert abs(inc.mean()) < 0.01
        kurt = ((inc - inc.mean()) ** 4).mean() / inc.var() ** 2
        assert abs(kurt - 3.0) < 0.15

    def test_theoretical_covariance_helper(self, paths):
        sch, _ = paths
        cov = bridge_covariance(sch)
        assert cov.shape == (65, 65)
        assert cov[64, 64] == pytest.approx(1.0)
        assert cov[16, 48] == pytest.approx(16 / 64)


class TestBlocking:
    def test_default_block_paths_positive(self, schedule):
        assert default_block_paths(schedule, 512 * 1024) >= 1

    def test_block_fits_budget(self, schedule):
        llc = 512 * 1024
        block = default_block_paths(schedule, llc)
        bytes_needed = block * (64 + 3 * 65) * 8
        assert bytes_needed <= llc

    def test_invalid_args(self, schedule):
        with pytest.raises(ConfigurationError):
            build_interleaved(schedule, lambda n: np.zeros(n), 0, 8)

    def test_bad_source_shape_detected(self, schedule):
        with pytest.raises(ConfigurationError):
            build_interleaved(schedule, lambda n: np.zeros(n + 1), 8, 8)


class TestFig6Shape:
    @pytest.fixture(scope="class")
    def km(self):
        return build()

    def test_basic_knc_slower(self, km):
        ratio = (km.reference("KNC").throughput
                 / km.reference("SNB-EP").throughput)
        assert 0.6 < ratio < 0.9  # paper: 25% slower

    def test_intermediate_bandwidth_ratio(self, km):
        label = "Intermediate (SIMD across paths)"
        ratio = (km.perf(label, "KNC").throughput
                 / km.perf(label, "SNB-EP").throughput)
        assert ratio == pytest.approx(150 / 76, rel=0.05)

    def test_interleaving_doubles_by_removing_reads(self, km):
        mid = "Intermediate (SIMD across paths)"
        adv = "Advanced (interleaved RNG)"
        for arch in ("SNB-EP", "KNC"):
            gain = (km.perf(adv, arch).throughput
                    / km.perf(mid, arch).throughput)
            assert gain == pytest.approx(2.0, rel=0.05)

    def test_cache_to_cache_fastest(self, km):
        for arch in ("SNB-EP", "KNC"):
            ladder = [tp.throughput for tp in km.ladder(arch)]
            assert ladder[-1] == max(ladder)

    def test_best_knc_advantage(self, km):
        ratio = km.best("KNC").throughput / km.best("SNB-EP").throughput
        assert 1.4 < ratio < 2.3  # paper: 2x

    def test_intermediate_is_bandwidth_bound(self, km):
        from repro.arch import CostModel
        label = "Intermediate (SIMD across paths)"
        for arch_name, arch in (("SNB-EP", None), ("KNC", None)):
            tp = km.perf(label, arch_name)
            model = CostModel(tp.arch)
            assert model.is_bandwidth_bound(tp.trace, tp.ctx)

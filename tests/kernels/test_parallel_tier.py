"""Parallel-tier acceptance: slab kernels are backend-deterministic —
``serial`` and ``thread`` executors produce bit-identical results.
Reference-tier agreement for every registered tier lives in
``test_registry_agreement.py``."""

import numpy as np
import pytest

from repro.kernels.binomial import (price_simd_across, price_tiled,
                                    price_tiled_parallel)
from repro.kernels.black_scholes import price_parallel
from repro.kernels.brownian import (build_parallel, build_vectorized,
                                    make_schedule)
from repro.kernels.monte_carlo import price_stream, price_stream_parallel
from repro import registry
from repro.config import SMALL_SIZES, SMOKE_SIZES
from repro.errors import DomainError
from repro.parallel import SlabExecutor
from repro.plan import audit_allocations, compile_plan
from repro.plan.audit import PEAK_NOISE_BUDGET
from repro.pricing import Option, random_batch
from repro.pricing.options import ExerciseStyle
from repro.results import as_result_slab
from repro.rng import MT19937, NormalGenerator


@pytest.fixture()
def serial_ex():
    with SlabExecutor("serial", slab_bytes=16 * 1024) as ex:
        yield ex


@pytest.fixture()
def thread_ex():
    with SlabExecutor("thread", n_workers=4, slab_bytes=16 * 1024) as ex:
        yield ex


class TestBlackScholes:
    def test_backend_bit_identical(self, serial_ex, thread_ex):
        a = random_batch(1000, seed=3, layout="soa")
        b = random_batch(1000, seed=3, layout="soa")
        price_parallel(a, serial_ex)
        price_parallel(b, thread_ex)
        assert np.array_equal(a.call, b.call)
        assert np.array_equal(a.put, b.put)

    def test_aos_layout_accepted(self, serial_ex):
        batch = random_batch(64, seed=5, layout="aos")
        price_parallel(batch, serial_ex)
        assert batch.call.shape == (64,)
        assert np.all(batch.call >= 0)


class TestMonteCarloStream:
    def _inputs(self, n_opt=5, n_paths=2048, seed=9):
        rng = np.random.default_rng(seed)
        S = rng.uniform(80, 120, n_opt)
        X = rng.uniform(80, 120, n_opt)
        T = rng.uniform(0.25, 2.0, n_opt)
        z = NormalGenerator(MT19937(seed)).normals(n_paths)
        return S, X, T, z

    def test_agrees_with_vectorized_tier(self, thread_ex):
        # The tail body sums a sorted stream's in-the-money draws only,
        # so it rounds differently from the paper's chain.
        S, X, T, z = self._inputs()
        vec = price_stream(S, X, T, 0.02, 0.3, z)
        par = price_stream_parallel(S, X, T, 0.02, 0.3, z, thread_ex)
        assert np.max(np.abs(par.price - vec.price)) <= 1e-10
        assert np.max(np.abs(par.stderr - vec.stderr)) <= 1e-10

    def test_backend_bit_identical(self, serial_ex, thread_ex):
        S, X, T, z = self._inputs()
        a = price_stream_parallel(S, X, T, 0.02, 0.3, z, serial_ex)
        b = price_stream_parallel(S, X, T, 0.02, 0.3, z, thread_ex)
        assert np.array_equal(a.price, b.price)

    def test_plans_agree_on_four_backends(self):
        """``parallel`` and ``greeks`` plans: one digest each on every
        backend, with slabs that split the option batch."""
        payload = registry.workload("monte_carlo").build(SMALL_SIZES,
                                                         seed=2012)
        nopt, n_paths = payload["S"].size, payload["randoms"].size
        digests = {"parallel": set(), "greeks": set()}
        for backend in ("serial", "thread", "process", "daemon"):
            with SlabExecutor(backend, n_workers=2,
                              slab_bytes=256 * 1024) as ex:
                assert ex.n_slabs(nopt, 8 * n_paths) > 1
                for tier in digests:
                    with compile_plan("monte_carlo", tier, payload,
                                      backend=backend, executor=ex) as plan:
                        digests[tier].add(as_result_slab(
                            plan.run(), plan.impl.outputs).digest())
        assert all(len(d) == 1 for d in digests.values()), digests

    @pytest.mark.parametrize("tier", ["parallel", "greeks"])
    def test_warm_run_allocates_nothing(self, tier):
        payload = registry.workload("monte_carlo").build(SMALL_SIZES,
                                                         seed=2012)
        with compile_plan("monte_carlo", tier, payload,
                          backend="serial") as plan:
            audit = audit_allocations(plan.run)
            assert audit.numpy_bytes == 0
            assert audit.peak_bytes <= PEAK_NOISE_BUDGET


class TestBrownian:
    def test_bit_identical_to_vectorized_tier(self, thread_ex):
        sched = make_schedule(6)
        z = NormalGenerator(MT19937(22)).normals(500 * 64)
        assert np.array_equal(build_parallel(sched, z, thread_ex),
                              build_vectorized(sched, z))

    @pytest.mark.parametrize("sizes", [SMOKE_SIZES, SMALL_SIZES],
                             ids=["smoke", "small"])
    def test_plans_agree_on_four_backends(self, sizes):
        """One bridge core on every backend: the ``parallel`` plan is
        the vectorized tier (itself the scalar reference, see
        ``test_brownian.py``), the ``greeks`` plan one digest — with
        slabs several blocks wide and slabs narrower than a block."""
        payload = registry.workload("brownian").build(sizes, seed=2012)
        want = build_vectorized(payload["schedule"],
                                payload["randoms"]).ravel()
        risk = set()
        for backend in ("serial", "thread", "process", "daemon"):
            for slab_bytes in (None, 256 * 1024):
                with SlabExecutor(backend, n_workers=2,
                                  slab_bytes=slab_bytes) as ex:
                    with compile_plan("brownian", "parallel", payload,
                                      backend=backend, executor=ex) as plan:
                        assert np.array_equal(plan.run(), want)
                    with compile_plan("brownian", "greeks", payload,
                                      backend=backend, executor=ex) as plan:
                        risk.add(plan.run().digest())
        assert len(risk) == 1

    @pytest.mark.parametrize("tier", ["parallel", "greeks"])
    def test_warm_run_allocates_nothing(self, tier):
        # SMALL: every slab loops its block workspace over several
        # blocks, the last one ragged.
        payload = registry.workload("brownian").build(SMALL_SIZES,
                                                      seed=2012)
        with compile_plan("brownian", tier, payload,
                          backend="serial") as plan:
            assert audit_allocations(plan.run).numpy_bytes == 0


class TestBinomial:
    def _options(self, n=17, seed=6):
        rng = np.random.default_rng(seed)
        return [Option(spot=100.0, strike=float(s), expiry=1.0, rate=0.02,
                       vol=0.3)
                for s in rng.uniform(80, 120, n)]

    def test_bit_identical_to_tiled_tier(self, thread_ex):
        opts = self._options()
        assert np.array_equal(price_tiled_parallel(opts, 128, thread_ex),
                              price_tiled(opts, 128))

    def test_backend_bit_identical(self, serial_ex, thread_ex):
        opts = self._options()
        a = price_tiled_parallel(opts, 96, serial_ex)
        b = price_tiled_parallel(opts, 96, thread_ex)
        assert np.array_equal(a, b)

    # Below, at and above the register tile (8 stages at the default
    # register file), one lane to a full batch: the node-major sweep
    # must reproduce both lane-accurate tiers bit for bit.
    @pytest.mark.parametrize("steps", [1, 7, 8, 64, 129])
    @pytest.mark.parametrize("lanes", [1, 3, 32])
    def test_sweep_matches_lane_accurate_tiers(self, lanes, steps,
                                               serial_ex, thread_ex):
        opts = self._options(lanes, seed=lanes + steps)
        tiled = price_tiled(opts, steps)
        assert np.array_equal(tiled, price_simd_across(opts, steps))
        for ex in (serial_ex, thread_ex):
            assert np.array_equal(price_tiled_parallel(opts, steps, ex),
                                  tiled)

    def test_american_rejected_with_the_true_reason(self, serial_ex):
        opts = self._options(2) + [Option(
            spot=100.0, strike=100.0, expiry=1.0, rate=0.02, vol=0.3,
            style=ExerciseStyle.AMERICAN)]
        with pytest.raises(DomainError, match="intrinsic max"):
            price_tiled_parallel(opts, 16, serial_ex)

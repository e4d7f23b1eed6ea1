"""RNG kernel functional-tier tests."""

import numpy as np
import pytest

from repro import registry
from repro.errors import ConfigurationError
from repro.kernels.rng_kernel import ScalarMT19937
from repro.kernels.rng_kernel.greeks import PATHWISE_OUTPUTS, _pathwise
from repro.parallel import SlabExecutor
from repro.plan import audit_allocations, compile_plan
from repro.rng import MT19937
from repro.validation import MT19937_SEED_5489_FIRST

BACKENDS = ("serial", "thread", "process", "daemon")


class TestScalarReference:
    def test_reference_vectors(self):
        g = ScalarMT19937(5489)
        assert tuple(g.raw(5)) == MT19937_SEED_5489_FIRST

    def test_bit_identical_to_vectorized_raw(self):
        a = ScalarMT19937(42).raw(2000)   # crosses a twist boundary
        b = MT19937(42).raw(2000)
        assert np.array_equal(a, b)

    def test_bit_identical_uniform53(self):
        a = ScalarMT19937(7).uniform53(500)
        b = MT19937(7).uniform53(500)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScalarMT19937(1.5)
        with pytest.raises(ConfigurationError):
            ScalarMT19937(1).raw(-1)


class TestParallelTiers:
    """The lane-batched slab tiers reproduce the one sequential stream
    on every backend, at a size no slab, lane or block boundary
    divides."""

    N, SEED = 40_001, 77
    #: Small slabs: many of them, none 312-aligned, three lane passes.
    SLAB_BYTES = 96 * 1024

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel_equals_sequential_stream(self, backend):
        want = MT19937(self.SEED).uniform53(self.N)
        with SlabExecutor(backend, n_workers=2,
                          slab_bytes=self.SLAB_BYTES) as ex:
            assert ex.n_slabs(self.N, 8) > 2
            fn = registry.impl("rng", "parallel", backend).fn
            assert np.array_equal(fn({"n": self.N, "seed": self.SEED}, ex),
                                  want)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_greeks_equals_sequential_stream(self, backend):
        n = self.N
        u = MT19937(self.SEED).uniform53(2 * n)
        want = {k: np.empty(n) for k in PATHWISE_OUTPUTS}
        _pathwise(u, np.empty(n), np.empty(n), np.empty(n),
                  np.empty(n, dtype=bool), *want.values())
        with SlabExecutor(backend, n_workers=2,
                          slab_bytes=self.SLAB_BYTES) as ex:
            got = registry.impl("rng", "greeks", backend).fn(
                {"n": n, "seed": self.SEED}, ex)
        for name in PATHWISE_OUTPUTS:
            assert np.array_equal(got[name], want[name]), name

    @pytest.mark.parametrize("tier", ["parallel", "greeks"])
    def test_warm_run_allocates_nothing(self, tier):
        with SlabExecutor("serial",
                          slab_bytes=self.SLAB_BYTES) as ex, \
                compile_plan("rng", tier, {"n": self.N, "seed": self.SEED},
                             backend="serial", executor=ex) as plan:
            assert audit_allocations(plan.run).numpy_bytes == 0

"""Inverse normal CDF tests."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from repro.errors import DomainError
from repro.plan import audit_allocations
from repro.plan.audit import PEAK_NOISE_BUDGET
from repro.vmath import vcnd, vinvcnd
from repro.vmath.invcnd import B


class TestAccuracy:
    def test_vs_scipy_core(self, rng_np):
        p = rng_np.uniform(1e-6, 1 - 1e-6, 100_000)
        err = np.abs(vinvcnd(p) - special.ndtri(p))
        assert np.max(err) < 1e-10

    def test_deep_tails(self):
        p = np.array([1e-100, 1e-300, 1 - 1e-12])
        assert np.allclose(vinvcnd(p), special.ndtri(p), rtol=1e-9)

    def test_median(self):
        assert vinvcnd(np.array([0.5]))[0] == pytest.approx(0.0, abs=1e-15)

    def test_symmetry(self, rng_np):
        p = rng_np.uniform(0.001, 0.499, 10_000)
        assert np.allclose(vinvcnd(p), -vinvcnd(1.0 - p), atol=1e-11)

    @given(st.floats(min_value=1e-10, max_value=1.0 - 1e-10))
    @settings(max_examples=300)
    def test_roundtrip_cnd(self, p):
        x = vinvcnd(np.array([p]))[0]
        assert vcnd(np.array([x]))[0] == pytest.approx(p, rel=1e-9,
                                                       abs=1e-12)

    def test_monotone(self):
        p = np.linspace(0.001, 0.999, 10_001)
        assert np.all(np.diff(vinvcnd(p)) > 0)


class TestDomain:
    def test_endpoints(self):
        out = vinvcnd(np.array([0.0, 1.0]))
        assert out[0] == -np.inf and out[1] == np.inf

    def test_outside_rejected(self):
        with pytest.raises(DomainError):
            vinvcnd(np.array([-0.1]))
        with pytest.raises(DomainError):
            vinvcnd(np.array([1.1]))

    def test_nan_propagates(self):
        assert np.isnan(vinvcnd(np.array([np.nan]))[0])


class TestBlockedOut:
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_blocked_equals_elementwise(self, n, rng_np):
        p = rng_np.uniform(0, 1, n)
        p[:min(n, 4)] = [0.0, 1.0, np.nan, 0.5][:min(n, 4)]
        whole = vinvcnd(p)
        assert whole.shape == (n,)
        pieces = [vinvcnd(p[i:i + 997]) for i in range(0, n, 997)]
        assert np.array_equal(whole, np.concatenate(pieces or [whole]),
                              equal_nan=True)

    def test_out_aliasing_and_strided_out(self, rng_np):
        p = rng_np.uniform(0, 1, 2 * B + 3)
        want = vinvcnd(p)
        out = np.empty(2 * p.size)[::2]
        assert vinvcnd(p, out=out) is out and np.array_equal(out, want)
        assert vinvcnd(p, out=p) is p and np.array_equal(p, want)

    def test_shape_kept(self, rng_np):
        p = rng_np.uniform(0, 1, (3, 5))
        assert np.array_equal(vinvcnd(p), vinvcnd(p.ravel()).reshape(3, 5))

    def test_outside_rejected_next_to_nan(self):
        with pytest.raises(DomainError):
            vinvcnd(np.array([np.nan, -0.1]))

    def test_warm_call_allocates_nothing(self, rng_np):
        """With ``out`` given a call holds no new array, and its
        transient peak is one block's, not ``p``'s: 16 blocks peak no
        higher than one."""
        audits = []
        for n in (B, 16 * B + 7):
            p = rng_np.uniform(0, 1, n)
            out = np.empty_like(p)
            audits.append(audit_allocations(lambda: vinvcnd(p, out=out)))
        one, many = audits
        assert many.numpy_blocks == 0 and many.numpy_bytes == 0
        assert many.peak_bytes <= one.peak_bytes + PEAK_NOISE_BUDGET, \
            audits

    def test_threads_get_identical_bytes(self, rng_np):
        """The block workspace is per thread: four threads evaluating at
        once, switching every microsecond, produce the serial result."""
        p = rng_np.uniform(0, 1, 2 * B + 7)
        want = vinvcnd(p).tobytes()

        def work(_):
            out = np.empty_like(p)
            return [vinvcnd(p, out=out).tobytes() for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(work, k) for k in range(4)]
                got = [b for f in futures for b in f.result(timeout=120)]
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 20 and all(b == want for b in got)

"""The table-driven normal CDF: accuracy against scipy and mpmath (both
test-only oracles), edge values, blocking, aliasing, allocation and
thread safety, and a pinned table."""

import hashlib
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy import special

from repro.plan import audit_allocations
from repro.vmath.ndtr import B, J, L, TABLE, ndtr

ATOL = 1e-15


def _mp_ncdf(x: np.ndarray) -> np.ndarray:
    with mpmath.workdps(40):
        return np.array([float(mpmath.ncdf(mpmath.mpf(float(v))))
                         for v in x])


class TestAccuracy:
    def test_random_points_vs_scipy(self, rng_np):
        x = rng_np.uniform(-10, 10, 100_000)
        assert np.max(np.abs(ndtr(x) - special.ndtr(x))) <= ATOL

    def test_dense_grid_vs_mpmath(self):
        x = np.linspace(-9.0, 9.0, 3001)
        assert np.max(np.abs(ndtr(x) - _mp_ncdf(x))) <= ATOL

    def test_interval_boundaries_vs_scipy(self):
        """±1 ulp around every point where the nearest node changes
        (|u| = 1/2, where the Taylor remainder is largest)."""
        mid = (np.arange(-J // 2, J // 2) + 0.5) * (2.0 * L / J)
        x = np.concatenate([np.nextafter(mid, -np.inf), mid,
                            np.nextafter(mid, np.inf)])
        assert np.max(np.abs(ndtr(x) - special.ndtr(x))) <= ATOL

    def test_boundaries_sample_vs_mpmath(self, rng_np):
        mid = (np.arange(-J // 2, J // 2) + 0.5) * (2.0 * L / J)
        x = rng_np.choice(mid, 400, replace=False)
        x = np.concatenate([np.nextafter(x, -np.inf), x])
        assert np.max(np.abs(ndtr(x) - _mp_ncdf(x))) <= ATOL

    def test_symmetry(self, rng_np):
        x = np.concatenate([rng_np.uniform(0, 9, 50_000),
                            np.linspace(0, 9, 20_001)])
        assert np.max(np.abs(ndtr(x) + ndtr(-x) - 1.0)) <= 2.3e-16

    def test_output_within_unit_interval(self):
        y = ndtr(np.linspace(-40, 40, 400_001))
        assert y.min() == 0.0 and y.max() == 1.0


class TestEdgeValues:
    def test_infinities_and_nan(self):
        y = ndtr(np.array([-np.inf, np.inf, np.nan]))
        assert y[0] == 0.0 and y[1] == 1.0 and np.isnan(y[2])

    def test_beyond_the_table_is_exact(self):
        y = ndtr(np.array([-L, -20.0, -1e300, L, 20.0, 1e300]))
        assert np.array_equal(y, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])

    def test_no_warning_on_finite_input(self):
        x = np.array([-1e308, -8.5, -5e-324, 0.0, 5e-324, 8.5, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = ndtr(x)
        assert y[3] == 0.5

    def test_shape_and_scalar_coercion(self):
        assert ndtr([[0.0, 1.0], [2.0, 3.0]]).shape == (2, 2)
        assert float(ndtr(0.0)) == 0.5

    def test_noncontiguous_out(self, rng_np):
        x = rng_np.uniform(-4, 4, 50)
        out = np.empty(100)[::2]
        assert ndtr(x, out=out) is out
        assert np.array_equal(out, ndtr(x))


class TestBlocking:
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_blocked_equals_elementwise(self, n, rng_np):
        x = rng_np.uniform(-9, 9, n)
        whole = ndtr(x)
        assert whole.shape == (n,)
        pieces = np.concatenate([ndtr(x[i:i + 997])
                                 for i in range(0, n, 997)] or [whole])
        assert np.array_equal(whole, pieces)

    def test_out_aliasing_x(self, rng_np):
        x = rng_np.uniform(-9, 9, 3 * B + 7)
        want = ndtr(x)
        assert ndtr(x, out=x) is x
        assert np.array_equal(x, want)

    def test_stacked_rows_equal_separate_calls(self, rng_np):
        d = rng_np.uniform(-6, 6, (2, 1000))
        a, b = ndtr(d[0]), ndtr(d[1])
        ndtr(d, out=d)
        assert np.array_equal(d[0], a) and np.array_equal(d[1], b)


class TestResources:
    def test_zero_warm_allocations(self, rng_np):
        x = rng_np.uniform(-5, 5, 3 * B + 7)
        out = np.empty_like(x)
        audit = audit_allocations(lambda: ndtr(x, out=out))
        assert audit.numpy_bytes == 0 and audit.numpy_blocks == 0

    def test_threads_get_identical_bytes(self, rng_np):
        """The workspace is per thread: eight threads evaluating at
        once, switching every microsecond, produce exactly the serial
        result — for full blocks and for a repeated tail length."""
        x = rng_np.uniform(-9, 9, 3 * B + 7)
        want = ndtr(x).tobytes()

        def work(_):
            out = np.empty_like(x)
            return [ndtr(x, out=out).tobytes() for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(work, k) for k in range(8)]
                got = [b for f in futures for b in f.result(timeout=120)]
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 160 and all(b == want for b in got)

    def test_table_is_pinned(self):
        """Built from float64 arithmetic and libm exp/erfc only, so the
        table bytes are the same wherever it is built."""
        assert TABLE.shape == (5, J + 1) and TABLE.nbytes == 163_880
        assert not TABLE.flags.writeable
        assert (hashlib.md5(TABLE.tobytes()).hexdigest()
                == "342a25ad06c9a5df5b2b3421d70cc91c")

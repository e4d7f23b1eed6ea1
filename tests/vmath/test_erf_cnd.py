"""Accuracy tests for erf/erfc/cnd against scipy, including tails."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from repro.plan import audit_allocations
from repro.vmath import vcnd, verf, verfc, vpdf


class TestErf:
    def test_accuracy_core(self, rng_np):
        x = rng_np.uniform(-6, 6, 100_000)
        rel = np.abs(verf(x) - special.erf(x)) / np.abs(special.erf(x))
        assert np.nanmax(rel) < 1e-13

    def test_odd_symmetry(self, rng_np):
        x = rng_np.uniform(0, 8, 10_000)
        assert np.array_equal(verf(-x), -verf(x))

    def test_limits(self):
        assert verf(np.array([0.0]))[0] == 0.0
        assert verf(np.array([10.0]))[0] == pytest.approx(1.0, abs=1e-15)
        assert verf(np.array([-10.0]))[0] == pytest.approx(-1.0, abs=1e-15)

    def test_regime_switch_continuity(self):
        """No jump where the series hands off to the continued fraction."""
        x = np.linspace(2.4, 2.6, 10_000)
        y = verf(x)
        assert np.all(np.diff(y) > 0)
        assert np.allclose(y, special.erf(x), rtol=1e-12)

    def test_nan(self):
        assert np.isnan(verf(np.array([np.nan]))[0])

    @given(st.floats(min_value=-8, max_value=8))
    @settings(max_examples=300)
    def test_pointwise(self, x):
        assert verf(np.array([x]))[0] == pytest.approx(
            float(special.erf(x)), rel=1e-11, abs=1e-15)


class TestErfc:
    def test_tail_relative_accuracy(self, rng_np):
        """erfc must hold *relative* accuracy deep into the tail, where
        1-erf would be catastrophic."""
        x = rng_np.uniform(3, 25, 50_000)
        rel = np.abs(verfc(x) - special.erfc(x)) / special.erfc(x)
        assert np.max(rel) < 1e-10

    def test_negative_side(self, rng_np):
        x = rng_np.uniform(-10, 0, 10_000)
        assert np.allclose(verfc(x), special.erfc(x), rtol=1e-12)

    def test_erf_plus_erfc_is_one(self, rng_np):
        x = rng_np.uniform(-3, 3, 10_000)
        assert np.allclose(verf(x) + verfc(x), 1.0, atol=1e-13)

    def test_deep_tail_nonzero(self):
        v = verfc(np.array([20.0]))[0]
        assert 0 < v < 1e-170
        assert v == pytest.approx(float(special.erfc(20.0)), rel=1e-10)


class TestCnd:
    def test_vs_scipy_ndtr(self, rng_np):
        x = rng_np.uniform(-10, 10, 100_000)
        rel = np.abs(vcnd(x) - special.ndtr(x)) / special.ndtr(x)
        assert np.max(rel) < 1e-10

    def test_lower_tail_relative(self):
        x = np.array([-15.0, -20.0, -30.0])
        assert np.allclose(vcnd(x), special.ndtr(x), rtol=1e-9)

    def test_symmetry(self, rng_np):
        x = rng_np.uniform(0, 5, 1000)
        assert np.allclose(vcnd(x) + vcnd(-x), 1.0, atol=1e-14)

    def test_median(self):
        assert vcnd(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-16)

    def test_monotone(self):
        x = np.linspace(-8, 8, 100_001)
        assert np.all(np.diff(vcnd(x)) >= 0)


class TestCndOut:
    def test_out_and_aliasing_match(self, rng_np):
        x = rng_np.uniform(-9, 9, 5000)
        want = vcnd(x)
        out = np.empty_like(x)
        assert vcnd(x, out=out) is out and np.array_equal(out, want)
        assert vcnd(x, out=x) is x and np.array_equal(x, want)

    def test_argument_goes_through_out(self, rng_np):
        """``vcnd``'s ``-x/√2`` lives in ``out``: with ``out`` given it
        holds no new array and peaks no higher than erfc alone."""
        x = rng_np.uniform(-6, 6, 1 << 15)
        out = np.empty_like(x)
        cnd = audit_allocations(lambda: vcnd(x, out=out))
        erfc = audit_allocations(lambda: verfc(x, out=out))
        assert cnd.numpy_blocks == 0 and cnd.numpy_bytes == 0
        assert cnd.peak_bytes <= erfc.peak_bytes + 4096, (cnd, erfc)


class TestPdf:
    def test_vs_scipy(self, rng_np):
        x = rng_np.uniform(-10, 10, 10_000)
        from scipy.stats import norm
        assert np.allclose(vpdf(x), norm.pdf(x), rtol=1e-13)

    def test_integrates_to_one(self):
        x = np.linspace(-12, 12, 200_001)
        assert np.trapezoid(vpdf(x), x) == pytest.approx(1.0, abs=1e-12)

    def test_is_derivative_of_cnd(self):
        x = np.linspace(-4, 4, 10_001)
        h = x[1] - x[0]
        numeric = np.gradient(vcnd(x), h)
        assert np.allclose(numeric[2:-2], vpdf(x)[2:-2], atol=1e-5)

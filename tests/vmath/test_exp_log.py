"""Accuracy and edge-case tests for the from-scratch exp/log."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.vmath import vexp, vlog


class TestExpAccuracy:
    def test_matches_numpy_over_full_range(self, rng_np):
        x = rng_np.uniform(-700, 700, 100_000)
        ours = vexp(x)
        ref = np.exp(x)
        rel = np.abs(ours - ref) / ref
        assert np.max(rel) < 5e-16

    def test_exact_points(self):
        assert vexp(np.array([0.0]))[0] == 1.0
        assert vexp(np.array([1.0]))[0] == pytest.approx(np.e, rel=1e-15)

    @given(st.floats(min_value=-600, max_value=600))
    @settings(max_examples=200)
    def test_pointwise_vs_numpy(self, x):
        assert vexp(np.array([x]))[0] == pytest.approx(np.exp(x), rel=1e-14)

    def test_overflow_underflow(self):
        out = vexp(np.array([800.0, -800.0]))
        assert out[0] == np.inf and out[1] == 0.0

    def test_special_values(self):
        out = vexp(np.array([np.inf, -np.inf, np.nan]))
        assert out[0] == np.inf and out[1] == 0.0 and np.isnan(out[2])

    def test_near_threshold(self):
        x = np.array([709.0, -745.0])
        assert np.allclose(vexp(x), np.exp(x), rtol=1e-14)


class TestLogAccuracy:
    def test_matches_numpy_over_magnitudes(self, rng_np):
        x = 10.0 ** rng_np.uniform(-300, 300, 100_000)
        rel = np.abs(vlog(x) - np.log(x)) / np.abs(np.log(x))
        assert np.nanmax(rel) < 5e-16

    def test_near_one(self, rng_np):
        """|log x| is tiny near 1 — the cancellation-sensitive region."""
        x = 1.0 + rng_np.uniform(-1e-8, 1e-8, 10_000)
        assert np.allclose(vlog(x), np.log(x), rtol=0, atol=1e-23)

    @given(st.floats(min_value=1e-300, max_value=1e300))
    @settings(max_examples=200)
    def test_pointwise_vs_numpy(self, x):
        assert vlog(np.array([x]))[0] == pytest.approx(
            np.log(x), rel=1e-13, abs=1e-15)

    def test_special_values(self):
        out = vlog(np.array([0.0, -1.0, np.inf, np.nan]))
        assert out[0] == -np.inf
        assert np.isnan(out[1]) and np.isnan(out[3])
        assert out[2] == np.inf

    def test_log_of_one_is_zero(self):
        assert vlog(np.array([1.0]))[0] == 0.0


class TestRoundTrips:
    @given(st.floats(min_value=-300.0, max_value=300.0))
    @settings(max_examples=200)
    def test_log_exp_inverse(self, x):
        assert vlog(vexp(np.array([x])))[0] == pytest.approx(x, abs=1e-12)

    def test_exp_log_inverse(self, rng_np):
        x = 10.0 ** rng_np.uniform(-10, 10, 10_000)
        assert np.allclose(vexp(vlog(x)), x, rtol=1e-13)

    def test_exp_sum_is_product(self, rng_np):
        a = rng_np.uniform(-5, 5, 1000)
        b = rng_np.uniform(-5, 5, 1000)
        assert np.allclose(vexp(a + b), vexp(a) * vexp(b), rtol=1e-13)


"""Implied-volatility solver tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import registry
from repro.config import SMALL_SIZES
from repro.errors import DomainError
from repro.kernels.black_scholes import implied_vol
from repro.kernels.black_scholes.implied import call_price_sig, surface_vols
from repro.parallel import SlabExecutor
from repro.pricing import bs_call, bs_put, bs_vega
from repro.results import as_result_slab
from repro.vmath.libs import get_lib


class TestRoundtrip:
    def test_vectorized_roundtrip_in_price_space(self, rng_np):
        S = rng_np.uniform(50, 150, 2000)
        X = rng_np.uniform(50, 150, 2000)
        T = rng_np.uniform(0.1, 2.0, 2000)
        sig = rng_np.uniform(0.05, 1.0, 2000)
        prices = bs_call(S, X, T, 0.03, sig)
        iv = implied_vol(prices, S, X, T, 0.03, is_call=True)
        resid = np.abs(bs_call(S, X, T, 0.03, iv) - prices)
        assert np.max(resid) < 1e-8

    def test_vol_recovered_where_identifiable(self, rng_np):
        """Where vega is non-negligible, the exact σ comes back."""
        S = rng_np.uniform(80, 120, 2000)
        X = rng_np.uniform(80, 120, 2000)
        T = rng_np.uniform(0.5, 2.0, 2000)
        sig = rng_np.uniform(0.1, 0.8, 2000)
        prices = bs_call(S, X, T, 0.03, sig)
        iv = implied_vol(prices, S, X, T, 0.03)
        vega = bs_vega(S, X, T, 0.03, sig)
        identifiable = vega > 1e-3
        assert identifiable.mean() > 0.95
        assert np.max(np.abs(iv[identifiable] - sig[identifiable])) < 1e-6

    @given(st.floats(0.05, 1.5), st.floats(0.7, 1.3))
    @settings(max_examples=100)
    def test_pointwise_put(self, sig, moneyness):
        S, X, T, r = 100.0, 100.0 * moneyness, 1.0, 0.02
        price = bs_put(S, X, T, r, sig)
        iv = implied_vol(np.array([price]), np.array([S]), np.array([X]),
                         np.array([T]), r, is_call=False)
        back = float(bs_put(S, X, T, r, float(iv[0])))
        assert back == pytest.approx(float(price), abs=1e-8)

    def test_mixed_calls_and_puts(self):
        S = np.array([100.0, 100.0])
        X = np.array([95.0, 105.0])
        T = np.array([1.0, 1.0])
        flags = np.array([True, False])
        prices = np.array([float(bs_call(100, 95, 1, 0.02, 0.4)),
                           float(bs_put(100, 105, 1, 0.02, 0.25))])
        iv = implied_vol(prices, S, X, T, 0.02, is_call=flags)
        assert iv[0] == pytest.approx(0.4, abs=1e-6)
        assert iv[1] == pytest.approx(0.25, abs=1e-6)


class TestDomain:
    def test_below_intrinsic_rejected(self):
        with pytest.raises(DomainError, match="no-arbitrage"):
            implied_vol(np.array([1.0]), np.array([150.0]),
                        np.array([100.0]), np.array([1.0]), 0.02)

    def test_above_spot_rejected(self):
        with pytest.raises(DomainError, match="no-arbitrage"):
            implied_vol(np.array([120.0]), np.array([100.0]),
                        np.array([100.0]), np.array([1.0]), 0.02)

    def test_bad_terms_rejected(self):
        with pytest.raises(DomainError):
            implied_vol(np.array([5.0]), np.array([-1.0]),
                        np.array([100.0]), np.array([1.0]), 0.02)

    @pytest.mark.parametrize("wrap", [float, lambda v: np.array([v])],
                             ids=["scalar", "array1"])
    def test_out_of_band_rejected_in_input_shape(self, wrap):
        """A price above spot has no σ, whether it arrives as a scalar
        or a 1-element vector; an in-band one comes back in its own
        shape."""
        with pytest.raises(DomainError, match="no-arbitrage"):
            implied_vol(wrap(200.0), wrap(100.0), wrap(100.0), wrap(1.0),
                        0.05)
        price = wrap(float(bs_call(100.0, 100.0, 1.0, 0.05, 0.25)))
        iv = implied_vol(price, wrap(100.0), wrap(100.0), wrap(1.0), 0.05)
        assert np.shape(iv) == np.shape(price)
        assert float(np.asarray(iv).reshape(-1)[0]) == pytest.approx(
            0.25, abs=1e-9)


class TestOneSolver:
    def test_matches_implied_tier_bit_for_bit(self):
        """``implied_vol`` on the ``implied`` tier's own payload returns
        the serial tier's output exactly: one Newton body, not two
        solvers that disagree where vega underflows."""
        payload = registry.workload("black_scholes").build(SMALL_SIZES,
                                                          seed=3)
        batch = payload["soa"]
        S, X, T = (batch.batch.get(k) for k in ("S", "X", "T"))
        target = np.empty_like(S)
        call_price_sig(S, X, T, batch.rate, surface_vols(batch), target,
                       get_lib("numpy"))
        impl = registry.impl("black_scholes", "implied", "serial")
        with SlabExecutor("serial") as ex:
            tier = as_result_slab(impl.fn(payload, ex), impl.outputs)
        iv = implied_vol(target, S, X, T, batch.rate)
        assert np.array_equal(iv, tier["implied_vol"])

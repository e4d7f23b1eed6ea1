"""Heston model tests: degeneration, parity, smiles."""

import numpy as np
import pytest

from repro.errors import DomainError
from repro.kernels.black_scholes import implied_vol
from repro.pricing import (HestonParams, bs_call, bs_equivalent_params,
                           heston_call, heston_put)

STANDARD = HestonParams(kappa=2.0, theta=0.09, sigma_v=0.4, rho=-0.7,
                        v0=0.09)


class TestParams:
    def test_feller(self):
        assert STANDARD.feller_satisfied
        assert not HestonParams(1.0, 0.04, 0.5, 0.0, 0.04).feller_satisfied

    @pytest.mark.parametrize("field,value", [
        ("kappa", -1.0), ("theta", 0.0), ("sigma_v", -0.1),
        ("rho", 1.0), ("v0", 0.0),
    ])
    def test_validation(self, field, value):
        kw = dict(kappa=2.0, theta=0.09, sigma_v=0.4, rho=-0.7, v0=0.09)
        kw[field] = value
        with pytest.raises(DomainError):
            HestonParams(**kw)


class TestSemiAnalytic:
    @pytest.mark.parametrize("vol", [0.1, 0.2, 0.4])
    @pytest.mark.parametrize("moneyness", [0.8, 1.0, 1.25])
    def test_black_scholes_degeneration(self, vol, moneyness):
        """σᵥ→0, v₀=θ: Heston must collapse to Black-Scholes."""
        p = bs_equivalent_params(vol)
        K = 100.0 * moneyness
        h = heston_call(100.0, K, 1.0, 0.05, p)
        b = float(bs_call(100.0, K, 1.0, 0.05, vol))
        assert h == pytest.approx(b, abs=5e-6)

    def test_put_call_parity(self):
        c = heston_call(100, 110, 1.0, 0.03, STANDARD)
        p = heston_put(100, 110, 1.0, 0.03, STANDARD)
        assert c - p == pytest.approx(100 - 110 * np.exp(-0.03),
                                      abs=1e-10)

    def test_call_monotone_decreasing_in_strike(self):
        prices = [heston_call(100, k, 1.0, 0.03, STANDARD)
                  for k in (80, 90, 100, 110, 120)]
        assert all(a > b for a, b in zip(prices, prices[1:]))

    def test_call_within_no_arbitrage_bounds(self):
        c = heston_call(100, 100, 1.0, 0.03, STANDARD)
        assert max(0.0, 100 - 100 * np.exp(-0.03)) < c < 100

    def test_negative_rho_produces_downward_skew(self):
        """The model's reason to exist: ρ<0 makes OTM puts richer —
        implied vol falls with strike."""
        strikes = np.array([80.0, 100.0, 120.0])
        prices = np.array([heston_call(100, k, 1.0, 0.02, STANDARD)
                           for k in strikes])
        ivs = implied_vol(prices, np.full(3, 100.0), strikes,
                          np.full(3, 1.0), 0.02)
        assert ivs[0] > ivs[1] > ivs[2]

    def test_quadrature_converged(self):
        a = heston_call(100, 100, 1.0, 0.03, STANDARD, n_nodes=128)
        b = heston_call(100, 100, 1.0, 0.03, STANDARD, n_nodes=512)
        assert a == pytest.approx(b, abs=1e-7)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            heston_call(-1, 100, 1.0, 0.03, STANDARD)

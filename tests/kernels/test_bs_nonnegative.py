"""Black-Scholes prices are never negative, and the scenario grid is
the per-cell price.

Put-call parity (``P = C − S + X·e^{−rT}``) cancels for deep
out-of-the-money puts and ``S·N(d1) − X·e^{−rT}·N(d2)`` for deep
out-of-the-money calls, so rounding alone can land a price a few ulp
below zero; every tier floors its price span at 0.  The property runs
over extreme moneyness and expiries on every tier, and the slab tiers
on every backend.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import registry
from repro.kernels.black_scholes.implied import call_price_sig
from repro.kernels.black_scholes.scenario import SPOT_SHIFTS, VOL_SHIFTS
from repro.kernels.black_scholes.tiers import make_payload
from repro.parallel import SlabExecutor

SLAB_TIERS = ("parallel", "greeks", "scenario")
LADDER = ("reference", "basic", "intermediate", "advanced")
BACKENDS = ("serial", "thread", "process", "daemon")


@pytest.fixture(scope="module")
def executors():
    exs = {b: SlabExecutor(b, n_workers=2, min_parallel_bytes=0)
           for b in BACKENDS}
    yield exs
    for ex in exs.values():
        ex.close()


@st.composite
def extreme_contracts(draw):
    """Log-moneyness in [-6, 6], T log-uniform in [1e-4, 30]."""
    n = draw(st.integers(1, 48))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    S = gen.uniform(1.0, 500.0, n)
    X = S * np.exp(gen.uniform(-6.0, 6.0, n))
    T = np.exp(gen.uniform(np.log(1e-4), np.log(30.0), n))
    rate = draw(st.floats(0.0, 0.15))
    vol = draw(st.floats(0.02, 1.5))
    return S, X, T, rate, vol


def _prices(tier: str, result) -> np.ndarray:
    if tier == "greeks":
        return np.asarray(result["price"])
    if tier == "scenario":
        return np.asarray(result["grid"])
    return np.asarray(result)


@given(extreme_contracts())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_prices_nonnegative_every_tier_and_backend(executors, contract):
    serial = executors["serial"]
    for tier in LADDER:
        got = registry.impl("black_scholes", tier).fn(
            make_payload(*contract), serial)
        assert np.all(got >= 0.0), (tier, got.min())
    for tier in SLAB_TIERS:
        for backend, ex in executors.items():
            impl = registry.impl("black_scholes", tier, backend)
            got = _prices(tier, impl.fn(make_payload(*contract), ex))
            assert np.all(got >= 0.0), (tier, backend, got.min())


def test_scenario_cells_equal_call_price_sig(executors):
    """Cell (k, j) of the grid is ``call_price_sig`` on spot·spot_k and
    σ·vol_j, bit for bit: both price through one stacked ``ndtr``."""
    gen = np.random.default_rng(21)
    n = 300
    S, X = gen.uniform(10, 200, n), gen.uniform(10, 200, n)
    T, rate, vol = gen.uniform(0.05, 3.0, n), 0.03, 0.25
    impl = registry.impl("black_scholes", "scenario", "serial")
    grid = np.asarray(impl.fn(make_payload(S, X, T, rate, vol),
                              executors["serial"])["grid"]).reshape(-1, n)
    cell = np.empty(n)
    for k, spot in enumerate(SPOT_SHIFTS):
        for j, shift in enumerate(VOL_SHIFTS):
            call_price_sig(S * spot, X, T, rate, np.full(n, vol * shift),
                           cell)
            np.maximum(cell, 0.0, out=cell)
            assert np.array_equal(grid[k * len(VOL_SHIFTS) + j], cell)

"""Monte-Carlo STREAM slab tiers price only the in-the-money tail.

The ``parallel`` and ``greeks`` tiers sort a copy of the shared stream
once per run and evaluate each option over the draws above its
threshold ``z*``.  That changes the summation order, so they agree
with the paper's vectorized chain (``price_stream``) within the
workload tolerance, not bit for bit.  Inputs are checked first: a NaN
would otherwise pass every positivity test and price silently.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import registry
from repro.config import SMALL_SIZES
from repro.errors import DomainError
from repro.kernels.monte_carlo import (greeks_stream_parallel, price_stream,
                                       price_stream_parallel)
from repro.kernels.monte_carlo.parallel import BLOCK
from repro.parallel import SlabExecutor
from repro.plan import compile_plan

TOL = registry.workload("monte_carlo").tolerance


@pytest.fixture(scope="module")
def serial_ex():
    with SlabExecutor("serial") as ex:
        yield ex


def _gaps(got, want) -> tuple:
    return (float(np.max(np.abs(got.price - want.price))),
            float(np.max(np.abs(got.stderr - want.stderr))))


def _vectorized(payload) -> np.ndarray:
    return registry.impl("monte_carlo", "vectorized").fn(payload, None)


@pytest.mark.parametrize("field", ["S", "X", "T", "rate", "vol"])
@pytest.mark.parametrize("fn", [price_stream, price_stream_parallel,
                                greeks_stream_parallel],
                         ids=lambda fn: fn.__name__)
def test_nan_input_raises(fn, field):
    args = {"S": np.array([100.0, 95.0]), "X": np.array([100.0, 105.0]),
            "T": np.array([1.0, 0.5]), "rate": 0.02, "vol": 0.3}
    if field in ("rate", "vol"):
        args[field] = np.nan
    else:
        args[field][1] = np.nan
    z = np.random.default_rng(3).standard_normal(512)
    with pytest.raises(DomainError, match="finite"):
        fn(args["S"], args["X"], args["T"], args["rate"], args["vol"], z)


@st.composite
def stream_cases(draw):
    """Log-moneyness in [-3, 3], T log-uniform in [1e-3, 30], σ in
    [0.05, 1.5], stream lengths on both sides of the tail block."""
    n = draw(st.sampled_from([1, 2, 7, 4096, BLOCK - 1, BLOCK + 1,
                              3 * BLOCK + 7]))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nopt = draw(st.integers(1, 4))
    S = gen.uniform(50.0, 150.0, nopt)
    X = S * np.exp(gen.uniform(-3.0, 3.0, nopt))
    T = np.exp(gen.uniform(np.log(1e-3), np.log(30.0), nopt))
    return (S, X, T, gen.uniform(0.0, 0.1), gen.uniform(0.05, 1.5),
            gen.standard_normal(n))


@given(stream_cases())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tail_body_matches_vectorized(serial_ex, case):
    dp, ds = _gaps(price_stream_parallel(*case, serial_ex),
                   price_stream(*case))
    assert dp <= 1e-10 and ds <= 1e-10, (dp, ds)


class TestTailEdges:
    Z = np.random.default_rng(5).standard_normal(BLOCK + 1)

    def test_no_draw_in_the_money_prices_exactly_zero(self, serial_ex):
        args = ([10.0], [1000.0], [0.5], 0.02, 0.3, self.Z)
        for got in (price_stream_parallel(*args, serial_ex),
                    price_stream(*args)):
            assert got.price[0] == 0.0 and got.stderr[0] == 0.0

    def test_every_draw_in_the_money(self, serial_ex):
        args = ([1000.0], [10.0], [0.5], 0.02, 0.3, self.Z)
        dp, ds = _gaps(price_stream_parallel(*args, serial_ex),
                       price_stream(*args))
        assert dp <= TOL and ds <= TOL

    def test_threshold_equal_to_a_draw(self, serial_ex):
        s, x, t, r, v = 100.0, 104.0, 0.75, 0.02, 0.3
        z = self.Z.copy()
        z[17] = (np.log(x / s) - t * (r - 0.5 * v * v)) / (np.sqrt(t) * v)
        args = ([s], [x], [t], r, v, z)
        dp, ds = _gaps(price_stream_parallel(*args, serial_ex),
                       price_stream(*args))
        assert dp <= TOL and ds <= TOL


def test_benchmark_size_agrees_with_vectorized():
    sizes = dataclasses.replace(SMALL_SIZES, mc_nopt=16,
                                mc_path_length=327_680)
    payload = registry.workload("monte_carlo").build(sizes, seed=1)
    with compile_plan("monte_carlo", "parallel", payload,
                      backend="serial") as plan:
        got = np.asarray(plan.run())
    assert np.max(np.abs(got - _vectorized(payload))) <= TOL


def test_callers_stream_is_never_reordered(serial_ex):
    payload = registry.workload("monte_carlo").build(SMALL_SIZES, seed=4)
    z = payload["randoms"]
    before = z.tobytes()
    price_stream_parallel(payload["S"], payload["X"], payload["T"],
                          payload["rate"], payload["vol"], z, serial_ex)
    assert z.tobytes() == before
    with compile_plan("monte_carlo", "parallel", payload,
                      backend="serial") as plan:
        first = np.array(plan.run())
        assert z.tobytes() == before
        # An in-place edit of the bound stream is priced by the next run.
        z *= 0.5
        got = np.asarray(plan.run())
        assert np.max(np.abs(got - _vectorized(payload))) <= TOL
        assert not np.allclose(got, first)

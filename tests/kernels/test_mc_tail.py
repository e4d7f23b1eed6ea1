"""Monte-Carlo STREAM slab tiers price only the in-the-money tail.

The ``parallel`` and ``greeks`` tiers keep a sorted copy of the shared
stream, re-sorted only on a run that finds the stream changed, and
evaluate each option over the draws above its threshold ``z*``.  That
changes the summation order, so they agree with the paper's vectorized
chain (``price_stream``) within the workload tolerance, not bit for
bit.  Inputs are checked first: a NaN
would otherwise pass every positivity test and price silently.
"""

import dataclasses
import gc
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import registry
from repro.config import SMALL_SIZES
from repro.errors import DomainError
from repro.kernels.monte_carlo import price_stream
from repro.kernels.monte_carlo.bump import compile_greeks_stream
from repro.kernels.monte_carlo.parallel import BLOCK, compile_price_stream
from repro.parallel import SlabExecutor
from repro.plan import compile_plan, one_shot
from repro.results import as_result_slab

TOL = registry.workload("monte_carlo").tolerance


@pytest.fixture(scope="module")
def serial_ex():
    with SlabExecutor("serial") as ex:
        yield ex


def _tail(executor, *args) -> np.ndarray:
    """The ``parallel`` tier's ``[price | stderr]`` one-shot."""
    return one_shot(compile_price_stream, *args, executor=executor)


def _gaps(got, want) -> tuple:
    """Largest price and stderr gaps of a ``[price | stderr]`` vector
    from an :class:`~repro.kernels.monte_carlo.reference.MCResult`."""
    n = want.price.size
    return (float(np.max(np.abs(got[:n] - want.price))),
            float(np.max(np.abs(got[n:] - want.stderr))))


def _vectorized(payload) -> np.ndarray:
    return registry.impl("monte_carlo", "vectorized").fn(payload, None)


@pytest.mark.parametrize("field", ["S", "X", "T", "rate", "vol"])
@pytest.mark.parametrize("compile_fn", [
    pytest.param(None, id="price_stream"),
    pytest.param(compile_price_stream, id="price_stream_parallel"),
    pytest.param(compile_greeks_stream, id="greeks_stream_parallel")])
def test_nan_input_raises(compile_fn, field, serial_ex):
    args = {"S": np.array([100.0, 95.0]), "X": np.array([100.0, 105.0]),
            "T": np.array([1.0, 0.5]), "rate": 0.02, "vol": 0.3}
    if field in ("rate", "vol"):
        args[field] = np.nan
    else:
        args[field][1] = np.nan
    z = np.random.default_rng(3).standard_normal(512)
    case = (args["S"], args["X"], args["T"], args["rate"], args["vol"], z)
    with pytest.raises(DomainError, match="finite"):
        if compile_fn is None:
            price_stream(*case)
        else:
            one_shot(compile_fn, *case, executor=serial_ex)


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
    dp, ds = _gaps(_tail(serial_ex, *case), price_stream(*case))
    assert dp <= 1e-10 and ds <= 1e-10, (dp, ds)


class TestTailEdges:
    Z = np.random.default_rng(5).standard_normal(BLOCK + 1)

    def test_no_draw_in_the_money_prices_exactly_zero(self, serial_ex):
        args = ([10.0], [1000.0], [0.5], 0.02, 0.3, self.Z)
        assert _tail(serial_ex, *args).tolist() == [0.0, 0.0]
        got = price_stream(*args)
        assert got.price[0] == 0.0 and got.stderr[0] == 0.0

    def test_every_draw_in_the_money(self, serial_ex):
        args = ([1000.0], [10.0], [0.5], 0.02, 0.3, self.Z)
        dp, ds = _gaps(_tail(serial_ex, *args), price_stream(*args))
        assert dp <= TOL and ds <= TOL

    def test_threshold_equal_to_a_draw(self, serial_ex):
        s, x, t, r, v = 100.0, 104.0, 0.75, 0.02, 0.3
        z = self.Z.copy()
        z[17] = (np.log(x / s) - t * (r - 0.5 * v * v)) / (np.sqrt(t) * v)
        args = ([s], [x], [t], r, v, z)
        dp, ds = _gaps(_tail(serial_ex, *args), price_stream(*args))
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
    _tail(serial_ex, payload["S"], payload["X"], payload["T"],
          payload["rate"], payload["vol"], z)
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


def _sorts(fn) -> int:
    """The ``ndarray.sort`` calls ``fn`` makes in this thread, counted
    from ``sys.setprofile``'s ``c_call`` events (the collector is off,
    so no finalizer's calls count)."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call" and getattr(arg, "__name__", "") == "sort":
            count += 1

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return count


@pytest.fixture(scope="module", params=["serial", "thread", "process",
                                        "daemon"])
def any_ex(request):
    with SlabExecutor(request.param, n_workers=2,
                      slab_bytes=256 * 1024) as ex:
        yield ex


@pytest.mark.parametrize("tier", ["parallel", "greeks"])
class TestSortOnlyOnChange:
    """A warm run re-sorts the stream only when it changed, and its
    price is then a fresh compile's on the changed stream."""

    @staticmethod
    def _payload(seed: int) -> dict:
        payload = registry.workload("monte_carlo").build(SMALL_SIZES,
                                                         seed=seed)
        payload["randoms"][5] = 0.0         # for the -0.0 flip
        return payload

    @staticmethod
    def _digest(plan, payload=None) -> str:
        return as_result_slab(plan.run(payload), plan.impl.outputs).digest()

    def _fresh(self, tier, payload, ex) -> str:
        payload = {**payload, "randoms": payload["randoms"].copy()}
        with compile_plan("monte_carlo", tier, payload,
                          backend=ex.backend, executor=ex) as plan:
            return self._digest(plan)

    def _census(self, plan, payload=None) -> tuple:
        """(sort calls, result digest) of one run."""
        got = []
        sorts = _sorts(lambda: got.append(self._digest(plan, payload)))
        return sorts, got[0]

    def test_unchanged_stream_is_not_sorted_again(self, tier, any_ex):
        with compile_plan("monte_carlo", tier, self._payload(4),
                          backend=any_ex.backend, executor=any_ex) as plan:
            assert self._census(plan)[0] == 1
            first = self._digest(plan)
            assert self._census(plan) == (0, first)

    @pytest.mark.parametrize("edit", ["scale", "negative_zero"])
    def test_in_place_edit_sorts_once(self, tier, edit, any_ex):
        with compile_plan("monte_carlo", tier, self._payload(4),
                          backend=any_ex.backend, executor=any_ex) as plan:
            before = self._digest(plan)
            z = plan.payload["randoms"]
            if edit == "scale":
                z[17] *= 0.5
            else:
                z[5] = -0.0
            sorts, got = self._census(plan)
            assert sorts == 1
            assert got == self._fresh(tier, plan.payload, any_ex)
            if edit == "scale":
                assert got != before
            assert self._census(plan) == (0, got)

    def test_rebind_sorts_once(self, tier, any_ex):
        new = self._payload(9)
        with compile_plan("monte_carlo", tier, self._payload(4),
                          backend=any_ex.backend, executor=any_ex) as plan:
            self._digest(plan)
            sorts, got = self._census(plan, new)
            assert sorts == 1
            assert got == self._fresh(tier, new, any_ex)

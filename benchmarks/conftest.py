"""Shared fixtures for the benchmark suite.

Functional benches run scaled-down workloads (`SMALL_SIZES`) so the whole
suite completes in minutes on one host core; the *modeled* throughput that
regenerates each paper figure is computed at full paper sizes (it costs
nothing — it's analytic).
"""

import pytest

from repro import registry
from repro.config import SMALL_SIZES


def _payload(kernel):
    return registry.workload(kernel).build(SMALL_SIZES, seed=2012)


@pytest.fixture(scope="session")
def bs_batch_factory():
    def make(layout="soa"):
        return _payload("black_scholes")[layout]
    return make


@pytest.fixture(scope="session")
def binomial_options():
    return _payload("binomial")["options"]


@pytest.fixture(scope="session")
def bridge_randoms():
    return _payload("brownian")["randoms"]


@pytest.fixture(scope="session")
def mc_inputs():
    p = _payload("monte_carlo")
    return p["S"], p["X"], p["T"], p["randoms"]


@pytest.fixture(scope="session")
def cn_options():
    return _payload("crank_nicolson")["options"]

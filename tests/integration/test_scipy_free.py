"""scipy stays out of the runtime.

A fresh interpreter imports ``repro``, compiles and runs every
Black-Scholes tier on the serial and thread backends, runs the six
``batch_kernels`` plans at SMOKE size, drives one gateway round of the
three served tiers and draws ICDF normals through both normal-quantile
entry points (``NormalGenerator(method="icdf")`` and
``vinvcnd``); afterwards ``scipy`` must not be in
``sys.modules``.  scipy is a test-only dependency (the oracle).
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

SCRIPT = r"""
import asyncio, sys
import numpy as np
import repro
from repro import registry
from repro.config import SMOKE_SIZES
from repro.parallel import SlabExecutor
from repro.plan import compile_plan
from repro.rng import MT19937, NormalGenerator
from repro.serve import PricingGateway, PricingRequest
from repro.vmath import vinvcnd

payload = registry.workload("black_scholes").build(SMOKE_SIZES, seed=3)
for backend in ("serial", "thread"):
    with SlabExecutor(backend, n_workers=2) as ex:
        for impl in registry.impls("black_scholes", backend=backend):
            impl.fn(payload, ex)
            with compile_plan("black_scholes", impl.tier, payload,
                              backend=backend, executor=ex) as plan:
                plan.run()
for kernel in ("black_scholes", "binomial", "brownian", "monte_carlo",
               "crank_nicolson", "rng"):
    wl = registry.workload(kernel).build(SMOKE_SIZES, seed=3)
    with compile_plan(kernel, registry.parallel_tier(kernel), wl,
                      backend="serial") as plan:
        plan.run()

async def gateway_round():
    gen = np.random.default_rng(3)
    async with PricingGateway(backend="serial") as gw:
        for tier in ("parallel", "greeks", "scenario"):
            await gw.submit(PricingRequest(
                gen.uniform(10, 200, 16), gen.uniform(10, 200, 16),
                gen.uniform(0.1, 3.0, 16), 0.03, 0.25, tier=tier))

asyncio.run(gateway_round())
z = NormalGenerator(MT19937(1), method="icdf").normals(4096)
vinvcnd(np.linspace(0.01, 0.99, 64))
assert np.all(np.isfinite(z))
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_pricing_path_never_imports_scipy():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]", proc.stdout

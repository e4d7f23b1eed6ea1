"""A pricing process imports only what it prices.

A fresh interpreter compiles one plan per tier the gateway serves, runs
one gateway round over the same tiers and reads ``gw.stats``; afterwards
``sys.modules`` must hold none of the modeled half — no ``repro.arch``,
``repro.bench``, ``repro.analysis`` or ``repro.validation`` module, no
kernel ``model``/``traced`` module — and of ``repro.simd`` only
``layout``, which ``OptionBatch`` is built on.  A second fresh
interpreter checks that the lazy ``repro`` namespace still lists and
resolves every public name, and a daemon worker that starts clean
(``spawn``) and pins a Black-Scholes plan imports that body's module
chain and nothing of the modeled half or of the other kernels.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

GATEWAY_ROUND = r"""
import asyncio, json, sys
import numpy as np
from repro.config import SMOKE_SIZES
from repro.plan import compile_plan
from repro.serve import PricingGateway, PricingRequest
from repro.serve.workloads import batchable_tiers

for kernel, tier in batchable_tiers():
    with compile_plan(kernel, tier, backend="serial",
                      sizes=SMOKE_SIZES) as plan:
        plan.run()

async def gateway_round():
    gen = np.random.default_rng(3)
    async with PricingGateway(backend="serial") as gw:
        for kernel, tier in batchable_tiers():
            await gw.submit(PricingRequest(
                gen.uniform(10, 200, 16), gen.uniform(10, 200, 16),
                gen.uniform(0.1, 3.0, 16), 0.03, 0.25, kernel=kernel,
                tier=tier))
        return gw.stats

stats = asyncio.run(gateway_round())
assert stats["completed"] == len(batchable_tiers()), stats
print(json.dumps(sorted(m for m in sys.modules
                        if m.partition(".")[0] == "repro")))
"""

NAMESPACE = r"""
import json
import repro
listed = set(dir(repro))
missing = [n for n in repro.__all__ if n not in listed]
for name in repro.__all__:
    getattr(repro, name)
from repro import price_black_scholes, OptionBatch  # noqa: F401
print(json.dumps(missing))
"""

#: Run as a file so a ``spawn`` worker can unpickle ``loaded``; the
#: module top level imports nothing from ``repro``.
WORKER = r"""
import sys


def loaded(arrays, consts, a, b, slab):
    return sorted(m for m in sys.modules if m.partition(".")[0] == "repro")


if __name__ == "__main__":
    import json
    import numpy as np
    from repro.config import SMOKE_SIZES
    from repro.parallel import SlabExecutor
    from repro.plan import compile_plan
    with SlabExecutor("daemon", n_workers=1, mp_context="spawn",
                      min_parallel_bytes=0) as ex:
        with compile_plan("black_scholes", "parallel", backend="daemon",
                          executor=ex, sizes=SMOKE_SIZES) as plan:
            plan.run()
            found = ex.map_shm(loaded, 8, sliced={"x": np.zeros(8)})
    print(json.dumps(found[0]))
"""

#: Subpackages of the modeled half: the performance models' machine
#: (``arch``), the figure/bench harness, the lint and the golden data.
MODELED = ("repro.arch", "repro.bench", "repro.analysis",
           "repro.validation")


def _fresh(*argv: str) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _modeled(modules: list) -> list:
    """The modeled-half modules among ``modules``."""
    def modeled(name: str) -> bool:
        package = ".".join(name.split(".")[:2])
        return (package in MODELED
                or name.rsplit(".", 1)[-1] in ("model", "traced")
                or (package == "repro.simd"
                    and name not in ("repro.simd", "repro.simd.layout")))
    return [m for m in modules if modeled(m)]


def test_gateway_round_loads_no_modeled_module():
    modules = _fresh("-c", GATEWAY_ROUND)
    assert "repro.serve.gateway" in modules          # the probe ran
    assert _modeled(modules) == []


def test_clean_daemon_worker_imports_only_the_pinned_body(tmp_path):
    script = tmp_path / "worker_census.py"
    script.write_text(WORKER)
    modules = _fresh(str(script))
    assert "repro.kernels.black_scholes.parallel" in modules
    assert _modeled(modules) == []
    others = [m for m in modules if m.startswith("repro.kernels.")
              and not m.startswith(("repro.kernels.black_scholes",
                                    "repro.kernels.levels"))]
    assert others == []


def test_every_public_name_is_listed_and_resolves():
    assert _fresh("-c", NAMESPACE) == []

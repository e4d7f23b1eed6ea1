"""Plans on the out-of-process backends run zero-copy.

A plan compiled on a ``process`` or ``daemon`` executor keeps its
arena buffers and its copy of the payload's streamed arrays in the
executor's shared segments, so its compiled dispatches reference them
in place: no copy-in, no copy-back.  Caller-owned arrays passed to
``compile_shm`` keep the staged path.  Segment-backed results must
outlive the plan, the executor and the segments' names; a read after
the mapping was freed would segfault, so those checks run in a fresh
interpreter, as does the interpreter-exit check.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import registry
from repro.config import SMOKE_SIZES
from repro.errors import ConfigurationError
from repro.parallel import SlabExecutor
from repro.plan import compile_plan

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")
OUT_OF_PROCESS = ("process", "daemon")
SLAB_TIERS = sorted({(i.kernel, i.tier) for i in registry.impls()
                     if i.backend != "serial"})

#: Small enough that every SMOKE-size tier splits into several slabs,
#: so its dispatches really go through the workers.
SLAB_BYTES = 4096


def _scale(arrays, consts, a, b, slab):
    arrays["out"][:] = arrays["x"] * consts["k"]


def _run_fresh(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)


class TestPlansAreZeroCopy:
    @pytest.fixture(scope="class", params=OUT_OF_PROCESS)
    def ex(self, request):
        with SlabExecutor(request.param, n_workers=2,
                          slab_bytes=SLAB_BYTES) as ex:
            yield ex

    @pytest.mark.parametrize("kernel,tier", SLAB_TIERS)
    def test_adopted_dispatches_copy_nothing(self, ex, kernel, tier):
        payload = registry.workload(kernel).build(SMOKE_SIZES, seed=2012)
        with SlabExecutor("serial", n_workers=2,
                          slab_bytes=SLAB_BYTES) as serial_ex, \
                compile_plan(kernel, tier, payload, backend="serial",
                             executor=serial_ex) as serial:
            want = np.array(serial.run())
        with compile_plan(kernel, tier, payload, backend=ex.backend,
                          executor=ex) as plan:
            dispatches = plan.arena._dispatches
            assert any(d._specs is not None for d in dispatches), \
                "no dispatch left the caller"
            for d in dispatches:
                assert d._copy_in == () and d._copy_back == (), d.tag
            assert np.array_equal(np.asarray(plan.run()), want)


    def test_failed_compile_leaves_nothing_linked(self, ex):
        payload = registry.workload("monte_carlo").build(SMOKE_SIZES,
                                                         seed=2012)
        payload["S"] = payload["S"][:-1]     # the planner rejects it
        with pytest.raises(ConfigurationError):
            compile_plan("monte_carlo", "parallel", payload,
                         backend=ex.backend, executor=ex)
        assert ex._arena._segments == {}
        assert ex._live_dispatches == []


class TestCallerOwnedArraysAreStaged:
    @pytest.mark.parametrize("backend", OUT_OF_PROCESS)
    def test_input_refreshed_in_place_is_seen(self, backend):
        x = np.arange(64, dtype=np.float64)
        out = np.zeros(64)
        with SlabExecutor(backend, n_workers=2, slab_bytes=256) as ex:
            dispatch = ex.compile_shm(_scale, 64, bytes_per_item=16,
                                      sliced={"x": x, "out": out},
                                      writes=("out",), consts={"k": 2.0})
            try:
                assert dispatch.n_slabs > 1
                assert len(dispatch._copy_in) == 1
                assert len(dispatch._copy_back) == 1
                dispatch.run()
                assert np.array_equal(out, x * 2.0)
                np.copyto(x, np.linspace(-1.0, 1.0, 64))
                dispatch.run()
                assert np.array_equal(out, x * 2.0)
            finally:
                dispatch.close()


LIFETIME = r"""
import dataclasses, gc, os
import numpy as np
from repro import registry
from repro.config import SMOKE_SIZES
from repro.errors import ConfigurationError
from repro.parallel import SlabExecutor
from repro.plan import compile_plan

WIDE = (("black_scholes", "parallel", "black_scholes_nopt", 2048),
        ("black_scholes", "greeks", "black_scholes_nopt", 1024),
        ("brownian", "parallel", "brownian_paths", 256))
census = lambda: {n for n in os.listdir("/dev/shm")
                  if n.startswith((f"repro{os.getpid()}x",
                                   f"reprod{os.getpid()}x"))}

def payload(kernel, field, items):
    sizes = dataclasses.replace(SMOKE_SIZES, **{field: items})
    return registry.workload(kernel).build(sizes, seed=5)

def serial(kernel, tier, p, one_shot):
    with SlabExecutor("serial", n_workers=2, slab_bytes=4096) as ex:
        if one_shot:
            return np.array(registry.impl(kernel, tier, "serial").fn(p, ex))
        with compile_plan(kernel, tier, p, executor=ex) as plan:
            return np.array(plan.run())

for kernel, tier, field, items in WIDE:
    p = payload(kernel, field, items)
    want = serial(kernel, tier, p, False)
    ex = SlabExecutor("daemon", n_workers=2, slab_bytes=4096)
    plan = compile_plan(kernel, tier, p, backend="daemon", executor=ex)
    got = plan.run()
    plan.close()
    ex.close()
    del plan, ex
    gc.collect()
    assert np.array_equal(np.asarray(got), want), (kernel, tier)
    for backend in ("process", "daemon"):
        want = serial(kernel, tier, p, True)
        ex = SlabExecutor(backend, n_workers=2, slab_bytes=4096)
        got = registry.impl(kernel, tier, backend).fn(p, ex)
        ex.close()
        del ex
        gc.collect()
        assert np.array_equal(np.asarray(got), want), (kernel, tier, backend)
assert census() == set(), census()
print("ok")
"""

EXIT = r"""
import os
from repro.plan import compile_plan
plans = [compile_plan("black_scholes", "parallel", backend=backend,
                      n_workers=2, slab_bytes=4096)
         for backend in ("process", "daemon")]
for plan in plans:
    plan.run()
print(os.getpid())
"""


class TestSegmentLifetime:
    def test_results_outlive_plan_and_executor(self):
        done = _run_fresh(LIFETIME)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"
        assert done.stderr == ""


class TestInterpreterExit:
    def test_unclosed_executors_exit_silently_and_clean(self):
        done = _run_fresh(EXIT)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        pid = done.stdout.strip()
        mine = (f"repro{pid}x", f"reprod{pid}x")
        assert [n for n in os.listdir("/dev/shm") if n.startswith(mine)] \
            == []

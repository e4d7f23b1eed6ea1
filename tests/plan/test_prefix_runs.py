"""Prefix runs: ``plan.run(n=k)`` prices items ``[0, k)`` only.

For the three Black-Scholes lane tiers on every backend, each output
row's ``[0, k)`` prefix must be bit-identical to a full run on the same
payload (the put half, all six Greeks, all 25 scenario cells), and on
the backends that slice the caller's arrays (serial, thread) the pad of
a sentinel-filled result past ``k``'s step must stay untouched.  A bad
live length, or one given to a tier without prefix runs, raises
``ConfigurationError`` and leaves the plan's payload as it was.
"""

import copy

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kernels.black_scholes.greeks import GREEKS_BYTES_PER_OPTION
from repro.kernels.black_scholes.parallel import SLAB_BYTES_PER_OPTION
from repro.kernels.black_scholes.scenario import SCENARIO_BYTES_PER_OPTION
from repro.parallel import SlabExecutor
from repro.parallel.partition import live_end
from repro.plan import compile_plan
from repro.pricing.options import OptionBatch

W = 256
#: Options per slab: three slabs at width ``W`` on every backend, so
#: ``k = 37`` lands in slab 0, ``k = 97``'s step ends in slab 1 and
#: ``k = W - 1`` lands in the last one.
SLAB = 100
TIERS = {"parallel": SLAB_BYTES_PER_OPTION,
         "greeks": GREEKS_BYTES_PER_OPTION,
         "scenario": SCENARIO_BYTES_PER_OPTION}
BACKENDS = ("serial", "thread", "process", "daemon")
#: Backends whose slabs run on views of the caller's arrays, which the
#: straddling slab cuts to the live length.
CUT_BACKENDS = ("serial", "thread")
SENTINEL = -7.0


def _payload(seed: int = 5) -> dict:
    gen = np.random.default_rng(seed)
    return {"soa": OptionBatch(
        gen.uniform(10.0, 200.0, W), gen.uniform(10.0, 200.0, W),
        gen.uniform(0.1, 3.0, W), rate=gen.uniform(0.01, 0.06, W),
        vol=gen.uniform(0.1, 0.5, W), layout="soa")}


@pytest.fixture(scope="module")
def executors():
    made = {}

    def get(backend: str, tier: str) -> SlabExecutor:
        key = (backend, tier)
        if key not in made:
            made[key] = SlabExecutor(backend, n_workers=2,
                                     slab_bytes=SLAB * TIERS[tier])
        return made[key]

    yield get
    for ex in made.values():
        ex.close()


def _rows(result) -> np.ndarray:
    """The result backing as ``(outputs, W)`` rows."""
    return np.asarray(result).reshape(-1, W)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("tier", sorted(TIERS))
def test_prefix_matches_full_run(tier, backend, executors):
    ex = executors(backend, tier)
    with compile_plan("black_scholes", tier, _payload(),
                      backend=backend, executor=ex) as plan:
        assert plan.live_width == W
        assert plan.executor.n_slabs(W, TIERS[tier]) == 3
        full = _rows(plan.run()).copy()
        for k in (1, 37, 97, W - 1, W):
            rows = _rows(plan.run())
            if backend in CUT_BACKENDS:
                rows[:] = SENTINEL
            out = _rows(plan.run(n=k))
            assert np.shares_memory(out, rows)
            assert out[:, :k].tobytes() == full[:, :k].tobytes(), \
                f"{tier}[{backend}] prefix {k} differs from a full run"
            if backend in CUT_BACKENDS:
                end = live_end(k, W)
                assert (out[:, end:] == SENTINEL).all(), \
                    f"{tier}[{backend}] priced pad past {end}"


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_full_run_after_prefix_prices_everything(tier, executors):
    ex = executors("serial", tier)
    with compile_plan("black_scholes", tier, _payload(),
                      backend="serial", executor=ex) as plan:
        full = _rows(plan.run()).copy()
        plan.run(n=37)
        _rows(plan.run())[:] = SENTINEL
        assert _rows(plan.run()).tobytes() == full.tobytes()


def test_new_payload_with_live_length(executors):
    """``run(payload, n=k)`` rebinds, then prices the prefix of the
    new numbers."""
    ex = executors("serial", "greeks")
    with compile_plan("black_scholes", "greeks", _payload(5),
                      backend="serial", executor=ex) as plan, \
            compile_plan("black_scholes", "greeks", _payload(6),
                         backend="serial", executor=ex) as other:
        want = _rows(other.run()).copy()
        got = _rows(plan.run(other.payload, n=37))
        assert got[:, :37].tobytes() == want[:, :37].tobytes()


def _other(payload):
    """A payload of the same shape with other numbers."""
    other = copy.deepcopy(payload)
    other["soa"].S[:] *= 2.0
    return other


class TestBadLiveLength:
    @pytest.mark.parametrize("n", [0, -1, W + 1, 37.0, "37", True])
    def test_rejected(self, n, executors):
        ex = executors("serial", "parallel")
        with compile_plan("black_scholes", "parallel", _payload(),
                          backend="serial", executor=ex) as plan:
            before = plan.payload["soa"].S.copy()
            with pytest.raises(ConfigurationError, match="live length"):
                plan.run(_other(plan.payload), n=n)
            assert plan.payload["soa"].S.tobytes() == before.tobytes()

    def test_numpy_integer_accepted(self, executors):
        ex = executors("serial", "parallel")
        with compile_plan("black_scholes", "parallel", _payload(),
                          backend="serial", executor=ex) as plan:
            full = _rows(plan.run()).copy()
            out = _rows(plan.run(n=np.int64(37)))
            assert out[:, :37].tobytes() == full[:, :37].tobytes()

    @pytest.mark.parametrize("tier", ["implied", "basic"])
    def test_tier_without_prefix_runs_names_itself(self, tier):
        from repro import registry
        from repro.config import SMOKE_SIZES
        payload = registry.workload("black_scholes").build(SMOKE_SIZES)
        with compile_plan("black_scholes", tier, payload,
                          backend="serial") as plan:
            assert plan.live_width is None
            before = plan.payload["soa"].S.copy()
            with pytest.raises(ConfigurationError, match=tier):
                plan.run(_other(plan.payload), n=1)
            assert plan.payload["soa"].S.tobytes() == before.tobytes()

"""Canonical-width bucketing and pack/scatter correctness.

The synchronous half of the gateway's correctness story: requests
packed into one staging, priced as a fused batch through the plan
layer, must scatter back bit-identical to pricing each request alone.
Pack and scatter are per batch: the columns they write match a
per-request loop byte for byte, and the numpy calls they make do not
grow with the number of requests.
"""

import gc
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GatewayError
from repro.parallel import SlabExecutor
from repro.plan import compile_plan
from repro.serve import PricingRequest, Staging, batcher, bucket_width
from repro.serve.workloads import (adapter_for, batchable_tiers,
                                   reference_result)

TIERS = ("parallel", "greeks", "scenario")


def _req(m, lo=50.0, hi=150.0, tier="parallel", rate=0.05, vol=0.2):
    return PricingRequest(S=np.linspace(lo, hi, m),
                          X=np.linspace(hi, lo, m),
                          T=np.linspace(0.1, 2.0, m),
                          rate=rate, vol=vol, tier=tier)


class TestBucketWidth:
    def test_small_totals_share_the_floor_bucket(self):
        assert bucket_width(1) == 64
        assert bucket_width(64) == 64

    def test_powers_of_two_above_floor(self):
        assert bucket_width(65) == 128
        assert bucket_width(128) == 128
        assert bucket_width(129) == 256
        assert bucket_width(3000) == 4096

    def test_clamped_to_max_batch(self):
        assert bucket_width(4096, max_batch=4096) == 4096

    def test_rejects_nonpositive_and_oversize(self):
        with pytest.raises(GatewayError):
            bucket_width(0)
        with pytest.raises(GatewayError, match="max_batch"):
            bucket_width(5000, max_batch=4096)

    def test_bounded_waste(self):
        # Power-of-two bucketing never pads beyond 2x the total.
        for total in (65, 100, 200, 500, 1000, 2500):
            assert bucket_width(total) < 2 * total


class TestPack:
    def _staging(self, tier="parallel", width=64):
        sig = ("black_scholes", tier, 0.05, 0.2)
        return Staging(adapter_for("black_scholes", tier), sig, width)

    def test_segments_are_back_to_back(self):
        st = self._staging()
        reqs = [_req(5), _req(7), _req(3)]
        offsets = st.pack(reqs)
        assert offsets == [(0, 5), (5, 12), (12, 15)]
        for (a, b), r in zip(offsets, reqs):
            assert np.array_equal(st.batch.S[a:b], r.S)
            assert np.array_equal(st.batch.X[a:b], r.X)
            assert np.array_equal(st.batch.T[a:b], r.T)

    def test_each_segment_carries_its_own_rate_and_vol(self):
        st = self._staging()
        reqs = [_req(5), _req(7, rate=0.01, vol=0.4), _req(3, vol=0.3)]
        for (a, b), r in zip(st.pack(reqs), reqs):
            assert np.all(st.batch.rate[a:b] == r.rate)
            assert np.all(st.batch.vol[a:b] == r.vol)

    def test_pack_writes_the_plan_bound_arrays_in_place(self):
        st = self._staging()
        S0 = st.batch.S
        st.pack([_req(8)])
        assert st.batch.S is S0      # no rebind, no reallocation

    def test_overflow_guarded(self):
        st = self._staging(width=64)
        with pytest.raises(GatewayError, match="width-64"):
            st.pack([_req(40), _req(40)])


COLUMNS = ("S", "X", "T", "rate", "vol")


def _loop_pack(staging, requests) -> list:
    """The per-request pack the batch calls replaced: five slice writes
    per request."""
    batch = staging.batch
    offsets, cur = [], 0
    for req in requests:
        end = cur + req.n
        for name in ("S", "X", "T"):
            getattr(batch, name)[cur:end] = getattr(req, name)
        batch.rate[cur:end] = req.rate
        batch.vol[cur:end] = req.vol
        offsets.append((cur, end))
        cur = end
    return offsets


@st.composite
def _batches(draw):
    """1-64 requests of sizes 1 to the width (jointly fitting it), each
    with its own ``(rate, vol)`` from a small mixed set."""
    width = draw(st.sampled_from((64, 256, 4096)))
    n_req = draw(st.integers(1, 64))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    reqs, room = [], width
    for i in range(n_req):
        m = draw(st.integers(1, room - (n_req - 1 - i)))
        room -= m
        reqs.append(PricingRequest(
            S=gen.uniform(10.0, 200.0, m), X=gen.uniform(10.0, 200.0, m),
            T=gen.uniform(0.1, 3.0, m),
            rate=draw(st.sampled_from((0.0, 0.01, 0.05, -0.02, 0.123))),
            vol=draw(st.sampled_from((0.05, 0.2, 0.35, 0.9)))))
    return width, reqs


class TestBatchPack:
    """The batch calls write what the per-request loop wrote."""

    def _staging(self, width=64):
        return Staging(adapter_for("black_scholes", "parallel"),
                       ("black_scholes", "parallel", 0.05, 0.2), width)

    @settings(max_examples=60, deadline=None)
    @given(case=_batches())
    def test_matches_the_per_request_loop(self, case):
        width, reqs = case
        got, want = self._staging(width), self._staging(width)
        for st_ in (got, want):          # stale contents past the total
            st_.batch.S[:] = 7.0
        assert got.pack(reqs) == _loop_pack(want, reqs)
        assert got.total == sum(r.n for r in reqs)
        for name in COLUMNS:
            assert getattr(got.batch, name).tobytes() == \
                getattr(want.batch, name).tobytes(), name

    @pytest.mark.parametrize("n_req", range(1, 11))
    def test_both_branches_write_identical_columns(self, n_req,
                                                   monkeypatch):
        """The per-request slice writes (below ``PACK_LOOP_BELOW``) and
        the batch calls pack the same bytes, forced either way."""
        gen = np.random.default_rng(n_req)
        reqs = [_req(int(gen.integers(1, 7)), lo=10.0 + i, rate=0.01 * i,
                     vol=0.1 + 0.02 * i) for i in range(n_req)]
        packed = {}
        for branch, below in (("loop", n_req + 1), ("batch", 0)):
            monkeypatch.setattr(batcher, "PACK_LOOP_BELOW", below)
            st_ = self._staging()
            st_.batch.S[:] = 7.0          # stale contents past the total
            offsets = st_.pack(reqs)
            packed[branch] = (offsets, st_.total, [
                getattr(st_.batch, name).tobytes() for name in COLUMNS])
        assert packed["loop"] == packed["batch"]

    def test_oversize_batch_writes_nothing(self):
        st_ = self._staging(width=64)
        before = [getattr(st_.batch, name).copy() for name in COLUMNS]
        with pytest.raises(GatewayError, match="width-64"):
            st_.pack([_req(40, lo=1.0, hi=2.0, rate=0.01, vol=0.5),
                      _req(40)])
        for name, old in zip(COLUMNS, before):
            assert getattr(st_.batch, name).tobytes() == old.tobytes()
        assert (st_.total, st_.packs) == (0, 0)

    def test_empty_batch_packs_nothing(self):
        st_ = self._staging()
        assert st_.pack([]) == []
        assert st_.total == 0


class TestScatterDigest:
    """Fused-batch pricing scatters back bit-identical to solo runs."""

    @pytest.mark.parametrize("tier,k", [("parallel", 2), ("greeks", 2),
                                        ("scenario", 25)])
    def test_scatter_matches_solo_reference(self, tier, k):
        reqs = [_req(5, 40, 90, tier=tier), _req(9, 80, 160, tier=tier),
                _req(2, 95, 105, tier=tier)]
        sig = reqs[0].signature
        st = Staging(adapter_for("black_scholes", tier), sig, 64)
        offsets = st.pack(reqs)
        with SlabExecutor("serial") as ex:
            plan = compile_plan("black_scholes", tier, st.payload,
                                executor=ex)
            try:
                results = st.scatter(plan.run(), offsets)
            finally:
                plan.close()
            for req, res in zip(reqs, results):
                ref = reference_result(req, ex)
                assert res.digest() == ref.digest(), (
                    f"{tier}: scattered result diverged from solo run")
                for name in res:
                    arr = np.asarray(res[name])
                    want = (k,) if tier != "greeks" else (2,)
                    assert arr.shape[:-1] == want
                    assert arr.shape[-1] == req.n

    def test_scatter_blocks_survive_staging_reuse(self):
        # Results must stay valid after the staging arrays are
        # overwritten by the next flush.
        reqs = [_req(4), _req(4, 60, 70)]
        st = Staging(adapter_for("black_scholes", "parallel"),
                     reqs[0].signature, 64)
        with SlabExecutor("serial") as ex:
            plan = compile_plan("black_scholes", "parallel", st.payload,
                                executor=ex)
            try:
                res1 = st.scatter(plan.run(), st.pack([reqs[0]]))[0]
                frozen = np.asarray(res1["price"]).copy()
                st.pack([reqs[1]])           # overwrite staged arrays
                plan.run()                    # overwrite arena outputs
                assert np.array_equal(np.asarray(res1["price"]), frozen)
            finally:
                plan.close()

    @pytest.mark.parametrize("tier", TIERS)
    def test_outputs_of_a_batch_view_one_block(self, tier):
        reqs = [_req(5, tier=tier), _req(9, tier=tier, vol=0.3),
                _req(2, tier=tier)]
        st_ = Staging(adapter_for("black_scholes", tier),
                      ("black_scholes", tier), 64)
        offsets = st_.pack(reqs)
        with SlabExecutor("serial") as ex, \
                compile_plan("black_scholes", tier, st_.payload,
                             executor=ex) as plan:
            value = plan.run()
            results = st_.scatter(value, offsets)
            blocks = {id(res[name].base) for res in results
                      for name in res}
            assert len(blocks) == 1
            block = results[0][results[0].outputs[0]].base
            assert not np.shares_memory(block, np.asarray(value))

    def test_bad_output_length_rejected(self):
        st = Staging(adapter_for("black_scholes", "parallel"),
                     ("black_scholes", "parallel", 0.05, 0.2), 64)
        offsets = st.pack([_req(4)])
        with pytest.raises(GatewayError, match="multiple"):
            st.scatter(np.zeros(65), offsets)


@pytest.fixture(scope="module")
def executors():
    """One executor per backend for the whole module: small slabs and
    no inline crossover, so wide stagings are multi-slab."""
    made = {b: SlabExecutor(b, n_workers=2, slab_bytes=1 << 14,
                            min_parallel_bytes=0)
            for b in ("serial", "thread", "daemon")}
    yield made
    for ex in made.values():
        ex.close()


@st.composite
def _partitions(draw):
    """A staging width cut into 1-12 request segments (not necessarily
    filling it), each with its own ``(rate, vol)``."""
    width = draw(st.sampled_from((64, 128, 512)))
    sizes = draw(st.lists(st.integers(1, width), min_size=1, max_size=12))
    while sum(sizes) > width:            # sizes[0] <= width always stays
        sizes.pop()
    params = [(draw(st.floats(-0.02, 0.15)), draw(st.floats(0.05, 0.9)))
              for _ in sizes]
    return width, sizes, params, draw(st.integers(0, 2 ** 16))


class TestColumnOperands:
    """rate/vol as streamed columns price every request exactly as its
    own float-parameter plan does."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "daemon"])
    @pytest.mark.parametrize("tier", TIERS)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_partitions())
    def test_segments_match_float_reference(
            self, executors, tier, backend, case):
        width, sizes, params, seed = case
        gen = np.random.default_rng(seed)
        reqs = [PricingRequest(S=gen.uniform(10.0, 200.0, m),
                               X=gen.uniform(10.0, 200.0, m),
                               T=gen.uniform(0.1, 3.0, m),
                               rate=rate, vol=vol, tier=tier)
                for m, (rate, vol) in zip(sizes, params)]
        staging = Staging(adapter_for("black_scholes", tier),
                          ("black_scholes", tier), width)
        offsets = staging.pack(reqs)
        ex = executors[backend]
        with compile_plan("black_scholes", tier, staging.payload,
                          backend=backend, executor=ex) as plan:
            results = staging.scatter(plan.run(), offsets)
        for req, res in zip(reqs, results):
            ref = reference_result(req, executors["serial"])
            assert res.digest() == ref.digest(), (tier, backend, req)

    @pytest.mark.parametrize("tier", TIERS)
    def test_warm_plan_prices_repacked_params(self, tier):
        # The stale-grid regression's analogue for the two new columns:
        # a warm plan re-run after pack() must price the new parameters.
        first = [_req(9, tier=tier), _req(5, tier=tier, vol=0.35)]
        second = [_req(9, tier=tier, rate=0.01, vol=0.5),
                  _req(5, tier=tier, rate=0.09)]
        staging = Staging(adapter_for("black_scholes", tier),
                          ("black_scholes", tier), 64)
        with SlabExecutor("serial") as ex, \
                compile_plan("black_scholes", tier, staging.payload,
                             executor=ex) as plan:
            offsets = staging.pack(first)
            stale = staging.scatter(plan.run(), offsets)
            offsets = staging.pack(second)
            fresh = staging.scatter(plan.run(), offsets)
            for req, old, new in zip(second, stale, fresh):
                assert new.digest() == reference_result(req, ex).digest()
                assert new.digest() != old.digest()


class TestBenchmarkContract:
    """What the frozen ``perfbench/`` reads of this package."""

    @pytest.mark.parametrize("tier", TIERS)
    def test_unpacked_staging_prices_signature(self, tier):
        sig = ("black_scholes", tier, 0.03, 0.25)
        staging = Staging(adapter_for("black_scholes", tier), sig, 64)
        assert staging.signature[:2] == ("black_scholes", tier)
        gen = np.random.default_rng(7)
        staging.batch.S[:] = gen.uniform(10.0, 200.0, 64)
        staging.batch.X[:] = gen.uniform(10.0, 200.0, 64)
        staging.batch.T[:] = gen.uniform(0.1, 3.0, 64)
        req = PricingRequest(S=staging.batch.S, X=staging.batch.X,
                             T=staging.batch.T, rate=0.03, vol=0.25,
                             tier=tier)
        with SlabExecutor("serial") as ex, \
                compile_plan("black_scholes", tier, staging.payload,
                             backend="serial", executor=ex) as plan:
            assert plan.payload is staging.payload
            plan.run()
            got = staging.scatter(plan.run(staging.payload), [(0, 64)])[0]
            assert got.digest() == reference_result(req, ex).digest()

    def test_no_adapter_needs_a_rebind(self):
        for kernel, tier in batchable_tiers():
            assert adapter_for(kernel, tier).needs_rebind is False

    def test_gateway_defaults_are_readable(self):
        from repro.serve import PricingGateway
        gw = PricingGateway(backend="serial")
        assert (gw.max_stagings, gw.min_bucket, gw.max_batch) \
            == (32, 64, 4096)
        assert gw.stats["plan_cache"]["maxsize"] == 32


#: The modules a pack or scatter runs in: an event counts only when
#: every frame between it and the measured call runs in one of these.
_MEASURED = ("repro.serve", "repro.results", "numpy")


def _numpy_calls(fn) -> int:
    """The calls ``fn`` makes that ``sys.setprofile`` sees: ``c_call``
    events (C functions and methods: ``ndarray.copy``, ``list.append``)
    plus calls into numpy's Python layer, through which every numpy
    function (``np.concatenate``, ``np.copyto``) dispatches.  A numpy
    call made once per request makes the count grow with the
    requests.

    Only ``fn``'s own call tree counts.  Garbage is collected before
    the window and the collector is off inside it, and a frame outside
    :data:`_MEASURED` (a finalizer of an earlier test's garbage, which
    may call numpy) cuts its events off from ``fn``."""
    count = 0
    code = fn.__code__

    def measured(frame) -> bool:
        while frame is not None:
            if frame.f_code is code:
                return True
            if not frame.f_globals.get("__name__", "").startswith(_MEASURED):
                return False
            frame = frame.f_back
        return False

    def profile(frame, event, arg):
        nonlocal count
        if (event == "c_call" or (
                event == "call"
                and frame.f_globals.get("__name__", "").startswith("numpy"))
                ) and measured(frame):
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


class _Litter:
    """Cyclic garbage whose finalizer calls numpy."""

    def __init__(self):
        self.cycle = self

    def __del__(self):
        np.concatenate([np.zeros(4), np.ones(4)])


class TestBatchCallCensus:
    """Structural, no clock: one pack plus one scatter make as many
    calls for 32 requests as for ``PACK_LOOP_BELOW``, and as many for
    ``PACK_LOOP_BELOW - 1`` as for 1 (the per-request slice writes make
    no call)."""

    @pytest.mark.parametrize("tier", TIERS)
    def test_calls_do_not_grow_with_requests(self, tier):
        counts = {}
        loop_max, batch_min = batcher.PACK_LOOP_BELOW - 1, \
            batcher.PACK_LOOP_BELOW
        with SlabExecutor("serial") as ex:
            for n_req in (1, loop_max, batch_min, 32):
                reqs = [_req(4, tier=tier, rate=0.01 * (i + 1))
                        for i in range(n_req)]
                st_ = Staging(adapter_for("black_scholes", tier),
                              ("black_scholes", tier), 256)
                with compile_plan("black_scholes", tier, st_.payload,
                                  executor=ex) as plan:
                    value = plan.run()

                    def batch():
                        st_.scatter(value, st_.pack(reqs))

                    batch()
                    counts[n_req] = _numpy_calls(batch)
        assert counts[1] == counts[loop_max], counts
        assert counts[batch_min] == counts[32], counts

    def test_earlier_garbage_is_not_counted(self):
        """Cyclic garbage left before one measurement, with a collection
        forced inside the window, adds no calls to it."""
        reqs = [_req(4, rate=0.01 * (i + 1)) for i in range(2)]
        st_ = Staging(adapter_for("black_scholes", "parallel"),
                      ("black_scholes", "parallel"), 256)
        with compile_plan("black_scholes", "parallel", st_.payload,
                          backend="serial") as plan:
            value = plan.run()

            def batch():
                gc.collect()
                st_.scatter(value, st_.pack(reqs))

            batch()
            enabled = gc.isenabled()
            gc.disable()            # the litter lives until it is measured
            try:
                clean = _numpy_calls(batch)
                for _ in range(8):
                    _Litter()
                littered = _numpy_calls(batch)
            finally:
                if enabled:
                    gc.enable()
        assert littered == clean, (clean, littered)

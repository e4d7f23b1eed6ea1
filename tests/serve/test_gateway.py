"""PricingGateway: coalescing, flush triggers, shedding, drain.

No pytest-asyncio in the container; each test drives its own event
loop with ``asyncio.run``.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.errors import (ConfigurationError, GatewayClosedError,
                          GatewayError, GatewayOverloadError)
from repro.parallel import SlabExecutor
from repro.serve import PricingGateway, PricingRequest, serial_reference


def _req(m=8, lo=50.0, hi=150.0, tier="parallel", rate=0.05, vol=0.2):
    return PricingRequest(S=np.linspace(lo, hi, m),
                          X=np.linspace(hi, lo, m),
                          T=np.linspace(0.1, 2.0, m),
                          rate=rate, vol=vol, tier=tier)


async def _submit_behind_held_batch(gw, first, later):
    """Submit ``first``, park the dispatch thread inside its batch
    (an ``Event`` in a wrapped ``_run_plan``), then submit ``later``;
    returns ``(release, tasks)`` with every later request queued."""
    entered, release = threading.Event(), threading.Event()
    run_plan = gw._run_plan

    def held(staging):
        if not entered.is_set():
            entered.set()
            assert release.wait(60.0)
        return run_plan(staging)

    gw._run_plan = held
    tasks = [asyncio.ensure_future(gw.submit(first))]
    loop = asyncio.get_running_loop()
    assert await loop.run_in_executor(None, entered.wait, 60.0)
    for req in later:
        tasks.append(asyncio.ensure_future(gw.submit(req)))
        await asyncio.sleep(0)           # let the submit enqueue
    return release, tasks


class TestValidation:
    def test_bad_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            PricingGateway(max_wait_s=-1.0)
        with pytest.raises(ConfigurationError):
            PricingGateway(min_bucket=128, max_batch=64)
        with pytest.raises(ConfigurationError):
            PricingGateway(max_batch_requests=0)

    def test_unsupported_tier_rejected_at_submit(self):
        async def main():
            async with PricingGateway(backend="serial") as gw:
                bad = _req(4)
                bad.tier = "implied"     # not batchable: batch-derived targets
                with pytest.raises(GatewayError, match="implied"):
                    await gw.submit(bad)
        asyncio.run(main())

    def test_oversized_request_rejected(self):
        async def main():
            async with PricingGateway(backend="serial",
                                      max_batch=64) as gw:
                with pytest.raises(GatewayError, match="max_batch"):
                    await gw.submit(_req(65))
        asyncio.run(main())

    def test_submit_after_close_raises(self):
        async def main():
            gw = PricingGateway(backend="serial")
            await gw.start()
            await gw.close()
            with pytest.raises(GatewayClosedError):
                await gw.submit(_req())
        asyncio.run(main())


class TestCoalescing:
    def test_concurrent_same_signature_requests_fuse(self):
        async def main():
            async with PricingGateway(backend="serial",
                                      max_wait_s=0.01) as gw:
                reqs = [_req(4 + i) for i in range(6)]
                results = await asyncio.gather(
                    *(gw.submit(r) for r in reqs))
                # All six requests ride one fused dispatch.
                assert {r.batch_requests for r in results} == {6}
                assert gw.stats["batches"] == 1
                return reqs, results
        reqs, results = asyncio.run(main())
        for req, res in zip(reqs, results):
            assert res.digest() == serial_reference(req).digest()

    def test_distinct_signatures_of_one_tier_fuse(self):
        # rate/vol travel with the data: requests of one tier ride one
        # batch whatever their signatures, and each still prices
        # exactly as it does alone with float parameters.
        async def main():
            async with PricingGateway(backend="serial",
                                      max_wait_s=0.01) as gw:
                reqs = [_req(4, vol=0.2), _req(4, vol=0.4),
                        _req(6, rate=0.01, vol=0.3)]
                results = await asyncio.gather(
                    *(gw.submit(r) for r in reqs))
                assert {r.batch_requests for r in results} == {3}
                assert gw.stats["batches"] == 1
                return reqs, results
        reqs, results = asyncio.run(main())
        for req, res in zip(reqs, results):
            assert res.digest() == serial_reference(req).digest()

    def test_mixed_tiers_route_to_their_own_batches(self):
        async def main():
            async with PricingGateway(backend="serial",
                                      max_wait_s=0.005) as gw:
                reqs = [_req(6, tier=t)
                        for t in ("parallel", "greeks", "scenario")]
                results = await asyncio.gather(
                    *(gw.submit(r) for r in reqs))
                return reqs, results
        reqs, results = asyncio.run(main())
        for req, res in zip(reqs, results):
            assert res.digest() == serial_reference(req).digest()
        assert results[0].outputs == ("price",)
        assert len(results[1].outputs) == 6          # the Greeks
        assert results[2].outputs == ("grid",)
        assert np.asarray(results[2]["grid"]).shape == (25, 6)

    def test_size_flush_does_not_wait_for_deadline(self):
        async def main():
            # max_wait is far beyond the test budget: only the
            # options-cap flush can complete these requests quickly.
            async with PricingGateway(backend="serial", max_wait_s=5.0,
                                      max_batch=64,
                                      min_bucket=64) as gw:
                reqs = [_req(32), _req(32)]
                results = await asyncio.wait_for(
                    asyncio.gather(*(gw.submit(r) for r in reqs)),
                    timeout=2.0)
                assert results[0].batch_options == 64
        asyncio.run(main())

    def test_request_cap_flush(self):
        async def main():
            async with PricingGateway(backend="serial", max_wait_s=5.0,
                                      max_batch_requests=3) as gw:
                results = await asyncio.wait_for(
                    asyncio.gather(*(gw.submit(_req(4))
                                     for _ in range(3))),
                    timeout=2.0)
                assert {r.batch_requests for r in results} == {3}
        asyncio.run(main())

    def test_per_request_mode_prices_each_alone(self):
        async def main():
            async with PricingGateway(backend="serial", max_wait_s=0.0,
                                      max_batch_requests=1) as gw:
                results = await asyncio.gather(
                    *(gw.submit(_req(4)) for _ in range(5)))
                assert {r.batch_requests for r in results} == {1}
                assert gw.stats["batches"] == 5
        asyncio.run(main())


class TestWorkConservingDispatch:
    """The default gateway never lingers: an idle dispatch thread
    starts a request at once, and batches form behind a busy one."""

    def test_default_gateway_arms_no_timer(self):
        async def main():
            async with PricingGateway(backend="serial") as gw:
                assert gw.max_wait_s == 0.0
                loop = asyncio.get_running_loop()

                def no_timers(*args, **kwargs):
                    raise AssertionError("default gateway armed a timer")

                loop.call_later = no_timers      # shadows the method
                try:
                    # No wait_for here: its timeout is itself a timer.
                    return await gw.submit(_req(5))
                finally:
                    del loop.call_later
        res = asyncio.run(main())
        assert res.batch_requests == 1
        assert res.digest() == serial_reference(_req(5)).digest()

    def test_requests_arriving_behind_a_busy_thread_ride_one_batch(self):
        async def main():
            async with PricingGateway(backend="serial") as gw:
                release, tasks = await _submit_behind_held_batch(
                    gw, _req(4), [_req(5 + i) for i in range(5)])
                release.set()
                results = await asyncio.wait_for(
                    asyncio.gather(*tasks), timeout=60.0)
                assert results[0].batch_requests == 1
                assert {r.batch_requests for r in results[1:]} == {5}
                assert gw.stats["batches"] == 2
        asyncio.run(main())

    def test_older_flush_of_another_tier_goes_first(self):
        async def main():
            async with PricingGateway(backend="serial") as gw:
                # A is in flight; B (another tier) arrives, then A'
                # joins A's queue.  A' must not overtake B just because
                # A's job is the one the dispatcher is holding.
                release, tasks = await _submit_behind_held_batch(
                    gw, _req(4),
                    [_req(4, tier="greeks"), _req(6)])
                order = []
                tasks[1].add_done_callback(lambda _: order.append("B"))
                tasks[2].add_done_callback(lambda _: order.append("A'"))
                release.set()
                await asyncio.wait_for(asyncio.gather(*tasks),
                                       timeout=60.0)
                assert order == ["B", "A'"]
                assert gw.stats["batches"] == 3
        asyncio.run(main())


class TestQueueHygiene:
    @pytest.mark.parametrize("max_wait_s", [0.0, 0.001])
    def test_signature_churn_leaves_no_queues_behind(self, max_wait_s):
        async def main():
            async with PricingGateway(backend="serial",
                                      max_wait_s=max_wait_s,
                                      plan_cache_size=4,
                                      max_stagings=4) as gw:
                reqs = [_req(4, vol=0.10 + 0.001 * i)
                        for i in range(200)]
                await asyncio.gather(*(gw.submit(r) for r in reqs))
                assert len(gw._queues) == 0
                assert gw.stats["queued_requests"] == 0
        asyncio.run(main())

    def test_signature_churn_compiles_per_width_not_per_signature(self):
        # 48 signatures x 3 tiers x mixed sizes through a default
        # gateway: plans and stagings are bounded by tiers x widths.
        gen = np.random.default_rng(22)
        reqs = []
        for i in range(48):
            for tier in ("parallel", "greeks", "scenario"):
                m = int(gen.integers(5, 601))
                reqs.append(PricingRequest(
                    S=gen.uniform(10.0, 200.0, m),
                    X=gen.uniform(10.0, 200.0, m),
                    T=gen.uniform(0.1, 3.0, m),
                    rate=0.01 + 0.002 * i, vol=0.12 + 0.01 * i, tier=tier))

        async def main():
            async with PricingGateway(backend="serial") as gw:
                results = []
                for k in range(0, len(reqs), 8):     # bursts of 8
                    results += await asyncio.gather(
                        *(gw.submit(r) for r in reqs[k:k + 8]))
                assert len(gw._queues) == 0
                return results, gw.stats
        results, stats = asyncio.run(main())
        assert stats["plan_cache"]["evictions"] == 0
        assert stats["plan_cache"]["misses"] <= 21
        assert stats["stagings"] <= 21
        assert max(r.batch_requests for r in results) > 1
        for req, res in zip(reqs, results):
            assert res.digest() == serial_reference(req).digest()

    @pytest.mark.parametrize("n_cancel", [3, 5])
    def test_cancelled_requests_are_dropped_not_priced(self, n_cancel):
        async def main():
            async with PricingGateway(backend="serial") as gw:
                release, tasks = await _submit_behind_held_batch(
                    gw, _req(4), [_req(5 + i) for i in range(5)])
                queued = tasks[1:]
                for task in queued[:n_cancel]:
                    task.cancel()
                release.set()
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*tasks, return_exceptions=True),
                    timeout=60.0)
                live = outcomes[1 + n_cancel:]
                assert all(isinstance(o, asyncio.CancelledError)
                           for o in outcomes[1:1 + n_cancel])
                assert {r.batch_requests for r in live} \
                    == ({5 - n_cancel} if live else set())
                s = gw.stats
                assert s["cancelled"] == n_cancel
                assert s["completed"] == 1 + len(live)
                # A take that was cancelled whole prices nothing.
                assert s["batches"] == (2 if live else 1)
                assert s["queued_requests"] == 0
                assert len(gw._queues) == 0
        asyncio.run(main())


class TestBackpressure:
    def test_overload_sheds_with_gateway_overload_error(self):
        async def main():
            async with PricingGateway(backend="serial", max_wait_s=0.05,
                                      max_pending=4) as gw:
                outcomes = await asyncio.gather(
                    *(gw.submit(_req(4)) for _ in range(12)),
                    return_exceptions=True)
                shed = [o for o in outcomes
                        if isinstance(o, GatewayOverloadError)]
                ok = [o for o in outcomes if not isinstance(o, Exception)]
                assert shed, "max_pending=4 never shed at 12 in flight"
                assert ok, "every request shed; gateway made no progress"
                assert gw.stats["shed"] == len(shed)
        asyncio.run(main())


class TestDrain:
    def test_close_completes_queued_work(self):
        async def main():
            gw = PricingGateway(backend="serial", max_wait_s=10.0)
            await gw.start()
            # Deadline is far away; close() must flush regardless.
            pending = [asyncio.ensure_future(gw.submit(_req(4)))
                       for _ in range(4)]
            await asyncio.sleep(0)       # let submits enqueue
            await asyncio.wait_for(gw.close(), timeout=5.0)
            results = await asyncio.gather(*pending)
            assert all(r.n == 4 for r in results)
        asyncio.run(main())

    def test_stats_shape(self):
        async def main():
            async with PricingGateway(backend="serial",
                                      max_wait_s=0.005) as gw:
                await gw.submit(_req(4))
                s = gw.stats
                assert s["requests"] == s["completed"] == 1
                assert s["batches"] == 1
                assert s["backend"] == "serial"
                assert s["batch_requests_hist"] == {"1": 1}
                assert s["service"]["n"] == 1
                gw.reset_stats()
                s2 = gw.stats
                assert s2["requests"] == 0 and s2["batches"] == 0
                assert s2["service"] == {"n": 0}
        asyncio.run(main())


class TestSharedExecutor:
    def test_external_executor_is_borrowed_not_closed(self):
        with SlabExecutor("serial") as ex:
            async def main():
                async with PricingGateway(executor=ex) as gw:
                    assert gw.backend == "serial"
                    res = await gw.submit(_req(4))
                    assert res.n == 4
            asyncio.run(main())

            # Still usable after the gateway closed: a second gateway
            # can borrow it and price.
            async def again():
                async with PricingGateway(executor=ex) as gw:
                    return (await gw.submit(_req(4))).n
            assert asyncio.run(again()) == 4


class TestDaemonChurn:
    """Width churn through a small PlanCache must keep the daemon's
    pinned-dispatch set bounded (eviction unpins)."""

    def test_plan_eviction_unpins_daemon_dispatches(self):
        with SlabExecutor("daemon", n_workers=2, slab_bytes=1 << 16) as ex:
            async def main():
                # Stagings outlive the plan cache on purpose: the
                # 3-slot PlanCache is what must evict (and unpin).
                async with PricingGateway(executor=ex, max_wait_s=0.0,
                                          plan_cache_size=3,
                                          max_stagings=16) as gw:
                    # Plans are keyed by width, not signature: six
                    # buckets (64 ... 2048) through a 3-slot cache,
                    # each request under its own (rate, vol).
                    reqs = [_req(40 << i, vol=0.15 + 0.05 * i)
                            for i in range(6)]
                    for req in reqs:
                        res = await gw.submit(req)
                        assert res.digest() == \
                            serial_reference(req).digest()
                    stats = gw.stats
                    assert stats["plan_cache"]["evictions"] >= 3
                    assert stats["plan_cache"]["size"] <= 3
                    # The daemon holds pins only for live plans.
                    assert len(ex._daemon._plans) <= 3
                    # An evicted width re-prices correctly (recompile
                    # + re-pin transparently).
                    res = await gw.submit(reqs[0])
                    assert res.digest() == \
                        serial_reference(reqs[0]).digest()
            asyncio.run(main())
            # Gateway close released every gateway pin.
            assert len(ex._daemon._plans) == 0


class TestDispatchPolicy:
    """The gateway reads a dispatch policy table instead of the global
    crossover constant — it never writes one, never touches a borrowed
    executor, and no table changes a result bit."""

    def _drive(self, policy, n_requests=24):
        async def main():
            async with PricingGateway(backend="serial", max_wait_s=0.0,
                                      policy=policy) as gw:
                digests = []
                for i in range(n_requests):
                    req = _req(8 + (i % 3) * 8, vol=0.2 + 0.01 * (i % 2))
                    res = await gw.submit(req)
                    digests.append(res.digest())
                return digests, gw.stats
        return asyncio.run(main())

    def test_fixed_mode_reports_fixed_policy(self):
        digests, stats = self._drive("fixed")
        assert stats["policy"] == {"mode": "fixed"}

    def test_auto_digests_bit_identical_to_fixed(self):
        fixed, _ = self._drive("fixed")
        auto, stats = self._drive("auto")
        assert auto == fixed
        assert stats["policy"]["mode"] == "auto"

    def test_auto_is_the_bootstrapped_table_and_writes_no_file(self):
        import os

        from repro.arch import machine_fingerprint
        from repro.tune import default_policy_path
        path = default_policy_path()   # conftest: per-test tmp path
        assert not os.path.exists(path)
        _, stats = self._drive("auto")
        policy = stats["policy"]
        assert policy["fingerprint"] == machine_fingerprint()
        assert policy["entries"]        # bootstrapped from the model
        assert {e["source"] for e in policy["entries"].values()} == \
            {"bootstrap"}
        # Serving reads the table; closing the gateway leaves no file
        # for later processes' default_executor() to pick up.
        assert not os.path.exists(path)

    def test_reset_stats_returns_policy_summary(self):
        async def main():
            async with PricingGateway(backend="serial", max_wait_s=0.0,
                                      policy="auto") as gw:
                await gw.submit(_req(8))
                summary = gw.reset_stats()
                assert summary["mode"] == "auto"
                assert gw.stats["requests"] == 0
                assert summary["entries"] == gw.stats["policy"]["entries"]
        asyncio.run(main())

    def test_pinned_policy_file_applies_without_tuning(self, tmp_path):
        from repro.tune import PolicyEntry, PolicyTable
        path = str(tmp_path / "pinned.json")
        table = PolicyTable()
        table.set("black_scholes", PolicyEntry(min_parallel_bytes=4096,
                                               bucket_width=64,
                                               source="pinned"))
        table.save(path)
        digests, stats = self._drive(path)
        assert stats["policy"]["mode"] == "pinned"
        assert set(stats["policy"]) == {"mode", "fingerprint", "entries"}
        fixed, _ = self._drive("fixed")
        assert digests == fixed

    def _table(self, mpb):
        from repro.tune import PolicyEntry, PolicyTable
        table = PolicyTable()
        table.set("black_scholes", PolicyEntry(min_parallel_bytes=mpb,
                                               source="pinned"))
        return table

    def test_borrowed_executor_keeps_its_crossover(self):
        with SlabExecutor("thread", n_workers=2,
                          min_parallel_bytes=1 << 21) as ex:
            async def main():
                async with PricingGateway(
                        executor=ex, policy=self._table(12345)) as gw:
                    req = _req(8)
                    res = await gw.submit(req)
                    assert res.digest() == serial_reference(req).digest()
                    assert gw.stats["policy"]["mode"] == "pinned"
            asyncio.run(main())
            assert ex.min_parallel_bytes == 1 << 21

    def test_owned_executor_compiles_under_the_table_crossover(self):
        def drive(policy):
            async def main():
                async with PricingGateway(backend="thread", n_workers=2,
                                          policy=policy) as gw:
                    digests = [(await gw.submit(
                        _req(8 + 8 * i, vol=0.2 + 0.01 * i))).digest()
                        for i in range(4)]
                    with gw._cache_lock:
                        keys = set(gw._cache._plans)
                    return digests, keys
            return asyncio.run(main())

        fixed, fixed_keys = drive("fixed")
        pooled, pooled_keys = drive(self._table(0))
        inline, inline_keys = drive(self._table(1 << 62))
        assert pooled == inline == fixed
        assert {k[-1] for k in fixed_keys} == {None}
        assert {k[-1] for k in pooled_keys} == {0}
        assert {k[-1] for k in inline_keys} == {1 << 62}

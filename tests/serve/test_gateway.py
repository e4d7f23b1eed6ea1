"""PricingGateway: coalescing, batch caps, shedding, drain.

No pytest-asyncio in the container; each test drives its own event
loop with ``asyncio.run``.
"""

import asyncio
import os
import threading

import numpy as np
import pytest

from repro.errors import (ConfigurationError, GatewayClosedError,
                          GatewayError, GatewayOverloadError)
from repro.parallel import SlabExecutor
from repro.parallel.partition import live_end
from repro.serve import PricingGateway, PricingRequest, serial_reference


def _req(m=8, lo=50.0, hi=150.0, tier="parallel", rate=0.05, vol=0.2):
    return PricingRequest(S=np.linspace(lo, hi, m),
                          X=np.linspace(hi, lo, m),
                          T=np.linspace(0.1, 2.0, m),
                          rate=rate, vol=vol, tier=tier)


async def _submit_behind_held_batch(gw, first, later):
    """Submit ``first``, park its batch (a miss, so it compiles off the
    loop) on an ``Event`` in a wrapped ``_run_plan``, then submit
    ``later``; returns ``(release, tasks)`` with every later request
    queued."""
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
    """Every submit of one ``gather`` queues before the dispatcher
    wakes, so the requests coalesce up to the batch caps."""

    def test_concurrent_same_signature_requests_fuse(self):
        async def main():
            async with PricingGateway(backend="serial") as gw:
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
            async with PricingGateway(backend="serial") as gw:
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
            async with PricingGateway(backend="serial") as gw:
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

    def test_size_cap_splits_the_queue(self):
        async def main():
            # Three 32-option requests under a 64-option cap: the first
            # two fill one batch, the third rides the next.
            async with PricingGateway(backend="serial", max_batch=64,
                                      min_bucket=64) as gw:
                reqs = [_req(32, vol=0.2 + 0.1 * i) for i in range(3)]
                results = await asyncio.gather(
                    *(gw.submit(r) for r in reqs))
                assert [r.batch_options for r in results] == [64, 64, 32]
                assert gw.stats["batches"] == 2
                return reqs, results
        reqs, results = asyncio.run(main())
        for req, res in zip(reqs, results):
            assert res.digest() == serial_reference(req).digest()

    def test_request_cap_flush(self):
        async def main():
            async with PricingGateway(backend="serial",
                                      max_batch_requests=3) as gw:
                results = await asyncio.gather(
                    *(gw.submit(_req(4)) for _ in range(5)))
                assert [r.batch_requests for r in results] \
                    == [3, 3, 3, 2, 2]
                assert gw.stats["batches"] == 2
        asyncio.run(main())

    def test_per_request_mode_prices_each_alone(self):
        async def main():
            async with PricingGateway(backend="serial",
                                      max_batch_requests=1) as gw:
                results = await asyncio.gather(
                    *(gw.submit(_req(4)) for _ in range(5)))
                assert {r.batch_requests for r in results} == {1}
                assert gw.stats["batches"] == 5
        asyncio.run(main())


class TestWorkConservingDispatch:
    """The gateway never lingers: an idle dispatcher starts a request
    at once, and batches form behind the batch in flight."""

    @pytest.mark.parametrize("max_batch_requests", [None, 1])
    def test_default_gateway_arms_no_timer(self, max_batch_requests):
        reqs = [_req(5, vol=0.2 + 0.1 * i) for i in range(3)]

        async def main():
            async with PricingGateway(
                    backend="serial",
                    max_batch_requests=max_batch_requests) as gw:
                loop = asyncio.get_running_loop()

                def no_timers(*args, **kwargs):
                    raise AssertionError("the gateway armed a timer")

                loop.call_later = loop.call_at = no_timers  # shadow
                try:
                    # No wait_for here: its timeout is itself a timer.
                    return await asyncio.gather(
                        *(gw.submit(r) for r in reqs))
                finally:
                    del loop.call_later, loop.call_at
        results = asyncio.run(main())
        assert {r.batch_requests for r in results} \
            == {max_batch_requests or len(reqs)}
        for req, res in zip(reqs, results):
            assert res.digest() == serial_reference(req).digest()

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


def _spy_threads(gw, monkeypatch):
    """Record the thread of every ``compile_plan`` and of every
    ``_run_plan`` call, the latter with whether its plan was warm."""
    from repro.serve import gateway as gateway_module
    compiles, runs = [], []
    compile_plan = gateway_module.compile_plan

    def spy_compile(*args, **kwargs):
        compiles.append(threading.get_ident())
        return compile_plan(*args, **kwargs)

    monkeypatch.setattr(gateway_module, "compile_plan", spy_compile)
    run_plan = gw._run_plan

    def spy_run(staging):
        runs.append((threading.get_ident(), staging.plan is not None))
        return run_plan(staging)

    gw._run_plan = spy_run
    return compiles, runs


class TestLoopPricing:
    """A warm plan runs on the event loop's thread; a compile (and the
    first run with it) goes off the loop, and the dispatcher yields to
    the loop between two batches of a backlog."""

    @pytest.mark.parametrize("backend", ["serial", "daemon"])
    def test_warm_runs_on_the_loop_and_compiles_off_it(self, backend,
                                                       monkeypatch):
        tiers = ("parallel", "greeks", "scenario")

        async def main():
            async with PricingGateway(backend=backend, n_workers=2) as gw:
                compiles, runs = _spy_threads(gw, monkeypatch)
                pairs = []
                for _round in range(2):
                    reqs = [_req(40, vol=0.2 + 0.01 * i, tier=tier)
                            for i, tier in enumerate(tiers)]
                    res = await asyncio.gather(*(gw.submit(r)
                                                 for r in reqs))
                    pairs += zip(reqs, res)
                return threading.get_ident(), compiles, runs, pairs

        loop_thread, compiles, runs, pairs = asyncio.run(main())
        assert len(compiles) == len(tiers)
        assert loop_thread not in compiles
        warm = [ident for ident, hit in runs if hit]
        cold = [ident for ident, hit in runs if not hit]
        assert len(cold) == len(tiers) and loop_thread not in cold
        assert len(warm) >= len(tiers)
        assert set(warm) == {loop_thread}
        for req, res in pairs:
            assert res.digest() == serial_reference(req).digest()

    def test_intake_runs_during_a_slow_compile(self, monkeypatch):
        from repro.serve import gateway as gateway_module
        entered, release = threading.Event(), threading.Event()
        compile_plan = gateway_module.compile_plan

        def slow_compile(*args, **kwargs):
            entered.set()
            assert release.wait(60.0)
            return compile_plan(*args, **kwargs)

        monkeypatch.setattr(gateway_module, "compile_plan", slow_compile)

        async def main():
            async with PricingGateway(backend="serial",
                                      max_pending=4) as gw:
                reqs = [_req(4 + i, vol=0.2 + 0.01 * i) for i in range(5)]
                tasks = [asyncio.ensure_future(gw.submit(reqs[0]))]
                loop = asyncio.get_running_loop()
                assert await loop.run_in_executor(None, entered.wait, 60.0)
                for req in reqs[1:]:
                    tasks.append(asyncio.ensure_future(gw.submit(req)))
                    await asyncio.sleep(0)       # let the submit enqueue
                assert gw.stats["queued_requests"] == 4
                with pytest.raises(GatewayOverloadError):
                    await gw.submit(_req(4))
                assert gw.stats["shed"] == 1
                release.set()
                results = await asyncio.wait_for(asyncio.gather(*tasks),
                                                 timeout=60.0)
                assert [r.batch_requests for r in results] == [1] + [4] * 4
                for req, res in zip(reqs, results):
                    assert res.digest() == serial_reference(req).digest()
        asyncio.run(main())

    def test_loop_callbacks_run_between_backlogged_batches(self):
        async def main():
            async with PricingGateway(backend="serial") as gw:
                for tier in ("parallel", "greeks"):     # warm both
                    await gw.submit(_req(4, tier=tier))
                loop = asyncio.get_running_loop()
                order = []
                run_plan = gw._run_plan

                def record(staging):
                    if not order:
                        loop.call_soon(order.append, "callback")
                    order.append(staging.adapter.tier)
                    return run_plan(staging)

                gw._run_plan = record
                # Both flush jobs are queued before the first prices.
                await asyncio.gather(gw.submit(_req(4)),
                                     gw.submit(_req(4, tier="greeks")))
                assert order == ["parallel", "callback", "greeks"]
        asyncio.run(main())


class TestQueueHygiene:
    # gap_s spaces the arrivals: 0.0 queues every request before the
    # dispatcher wakes; 0.001 makes queues open and empty across many
    # takes while batches are in flight.
    @pytest.mark.parametrize("gap_s", [0.0, 0.001])
    def test_signature_churn_leaves_no_queues_behind(self, gap_s):
        async def main():
            async with PricingGateway(backend="serial",
                                      plan_cache_size=4,
                                      max_stagings=4) as gw:
                reqs = [_req(4, vol=0.10 + 0.001 * i)
                        for i in range(200)]

                async def arrive(i, req):
                    if gap_s:
                        await asyncio.sleep(gap_s * i)
                    return await gw.submit(req)

                await asyncio.gather(
                    *(arrive(i, r) for i, r in enumerate(reqs)))
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
            async with PricingGateway(backend="serial",
                                      max_pending=4) as gw:
                # All twelve submits run before the dispatcher takes
                # a batch: the first four queue, the rest are shed.
                outcomes = await asyncio.gather(
                    *(gw.submit(_req(4)) for _ in range(12)),
                    return_exceptions=True)
                shed = [o for o in outcomes
                        if isinstance(o, GatewayOverloadError)]
                ok = [o for o in outcomes if not isinstance(o, Exception)]
                assert len(ok) == 4 and len(shed) == 8
                assert {r.batch_requests for r in ok} == {4}
                assert gw.stats["shed"] == len(shed)
        asyncio.run(main())


class TestDrain:
    def test_close_completes_queued_work(self):
        async def main():
            gw = PricingGateway(backend="serial")
            await gw.start()
            # Four requests queue behind a held batch; close() begins
            # while they wait and must still price every one.
            release, tasks = await _submit_behind_held_batch(
                gw, _req(4), [_req(4) for _ in range(4)])
            closing = asyncio.ensure_future(gw.close())
            await asyncio.sleep(0)       # let close() stop intake
            with pytest.raises(GatewayClosedError):
                await gw.submit(_req(4))
            release.set()
            await asyncio.wait_for(closing, timeout=60.0)
            results = await asyncio.gather(*tasks)
            assert all(r.n == 4 for r in results)
            assert [r.batch_requests for r in results] == [1, 4, 4, 4, 4]
        asyncio.run(main())

    def test_stats_shape(self):
        async def main():
            async with PricingGateway(backend="serial") as gw:
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
                async with PricingGateway(executor=ex,
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


class TestDaemonPricing:
    def test_daemon_gateway_is_bit_identical_to_serial(self):
        """On the daemon a plan streams through its own shared-memory
        copy of the staging, which later batches are packed into: one
        copy in, none out, the same bits as serial."""
        with SlabExecutor("daemon", n_workers=2, slab_bytes=1 << 12) as ex:
            async def main():
                async with PricingGateway(executor=ex) as gw:
                    for i, tier in enumerate(("parallel", "greeks",
                                              "scenario")):
                        for m in (8, 300):
                            req = _req(m, lo=40.0 + i, vol=0.2 + 0.05 * i,
                                       tier=tier)
                            res = await gw.submit(req)
                            assert res.digest() == \
                                serial_reference(req).digest(), (tier, m)
                    stagings = {id(s.payload) for s in gw._stagings.values()}
                    plans = list(gw._cache._plans.values())
                    assert plans
                    for plan in plans:
                        assert id(plan.payload) not in stagings
                        for d in plan.arena._dispatches:
                            assert d._copy_in == () and d._copy_back == ()
            asyncio.run(main())

    def test_daemon_backend_gateway_owns_its_fleet(self):
        """``backend="daemon"`` with no executor forks a fleet of its
        own, prices like serial, and takes the fleet and every segment
        it made with it on close."""
        mine = {f"repro{os.getpid()}x", f"reprod{os.getpid()}x"}

        def census():
            return {n for n in os.listdir("/dev/shm")
                    if any(n.startswith(p) for p in mine)}

        before = census()

        async def main():
            async with PricingGateway(backend="daemon", n_workers=2) as gw:
                for m in (1, 7, 300, 4096):
                    req = _req(m, vol=0.15 + m * 1e-5)
                    res = await gw.submit(req)
                    assert res.digest() == \
                        serial_reference(req).digest(), m
                assert gw.backend == "daemon"
                return list(gw._executor._daemon._procs), census()

        procs, during = asyncio.run(main())
        assert len(procs) == 2 and during - before
        assert not any(p.is_alive() for p in procs)
        assert census() == before
        assert PricingGateway().backend == "serial"


class TestPackIntoThePlan:
    """Out of process a plan owns a shared-memory copy of its payload;
    once the plan is compiled the gateway packs straight into that
    copy, so a warm batch is copied once, by the pack."""

    def test_warm_daemon_batches_rebind_nothing(self, monkeypatch):
        from repro.plan import plan as plan_module
        rebinds = []
        rebind = plan_module._rebind_into

        def spy(bound, new, path="payload"):
            rebinds.append(path)
            return rebind(bound, new, path)

        monkeypatch.setattr(plan_module, "_rebind_into", spy)
        with SlabExecutor("daemon", n_workers=2, slab_bytes=1 << 12) as ex:
            async def main():
                async with PricingGateway(executor=ex) as gw:
                    for i, tier in enumerate(("parallel", "greeks",
                                              "scenario")):
                        for j, m in enumerate((8, 30, 300)):
                            req = _req(m, lo=40.0 + i, vol=0.2 + 0.01 * j,
                                       tier=tier)
                            res = await gw.submit(req)
                            assert res.digest() == \
                                serial_reference(req).digest(), (tier, m)
                            # The next batch at this width is warm.
                            res = await gw.submit(_req(m, tier=tier))
                            assert res.digest() == serial_reference(
                                _req(m, tier=tier)).digest(), (tier, m)
                    assert gw._stagings
                    for staging in gw._stagings.values():
                        assert staging.plan.payload is not staging.payload
                        assert staging.batch is \
                            staging.plan.payload["soa"]
            asyncio.run(main())
        assert rebinds == []

    def test_plan_evicted_under_a_live_staging_still_prices(self):
        """A one-plan cache and two tiers at one width: each greeks
        batch evicts (and closes) the plan the parallel staging was
        bound to, and the next parallel batch must price its own
        numbers, not pack into the closed plan."""
        with SlabExecutor("daemon", n_workers=2, slab_bytes=1 << 12) as ex:
            async def main():
                async with PricingGateway(executor=ex,
                                          plan_cache_size=1) as gw:
                    for i in range(3):
                        for j, tier in enumerate(("parallel", "parallel",
                                                  "greeks")):
                            req = _req(20 + i, lo=30.0 + 10 * i + j,
                                       vol=0.15 + 0.05 * j, tier=tier)
                            res = await gw.submit(req)
                            assert res.digest() == \
                                serial_reference(req).digest(), (i, tier)
                    assert gw.stats["plan_cache"]["evictions"] >= 5
                    assert len(ex._daemon._plans) <= 1
            asyncio.run(main())


class TestDispatchPolicy:
    """The gateway never rewrites an executor's crossover."""

    def test_borrowed_executor_keeps_its_crossover(self):
        with SlabExecutor("thread", n_workers=2,
                          min_parallel_bytes=1 << 21) as ex:
            async def main():
                async with PricingGateway(executor=ex) as gw:
                    req = _req(8)
                    res = await gw.submit(req)
                    assert res.digest() == serial_reference(req).digest()
            asyncio.run(main())
            assert ex.min_parallel_bytes == 1 << 21


class TestPrefixPricing:
    """The gateway prices each batch's packed total, rounded up to the
    end of its live step, never the whole pad its power-of-two bucket
    adds."""

    def test_slab_tasks_see_the_packed_total(self, monkeypatch):
        from repro.kernels.black_scholes import greeks, scenario
        seen = []
        for mod, name in ((greeks, "_greeks_slab_task"),
                          (scenario, "_scenario_slab_task")):
            def spy(arrays, consts, a, b, slab, _task=getattr(mod, name)):
                seen.append(len(arrays["S"]))
                return _task(arrays, consts, a, b, slab)
            monkeypatch.setattr(mod, name, spy)
        groups = [(37,), (100, 29), (300,), (5, 60, 211), (700, 1)]

        async def main():
            # One slab per dispatch on any host: the spy sees whole
            # batches.
            async with PricingGateway(slab_bytes=1 << 24) as gw:
                batches = []
                run_plan = gw._run_plan

                def record(staging):
                    batches.append((staging.total, staging.width))
                    return run_plan(staging)

                gw._run_plan = record
                pairs = []
                for i, sizes in enumerate(groups):
                    for tier in ("greeks", "scenario"):
                        reqs = [_req(m, lo=40.0 + i, vol=0.2 + 0.01 * m,
                                     tier=tier) for m in sizes]
                        res = await asyncio.gather(
                            *(gw.submit(r) for r in reqs))
                        pairs += zip(reqs, res)
                return batches, pairs

        batches, pairs = asyncio.run(main())
        assert len(batches) >= 2 * len(groups)
        assert seen == [live_end(total, width) for total, width in batches]
        assert all(live_end(total, width) < width
                   for total, width in batches)
        for req, res in pairs:
            assert res.digest() == serial_reference(req).digest()

    def test_daemon_prices_the_slabs_under_the_total(self, monkeypatch):
        """Pooled on two workers, a width-64 plan is two 32-option
        slabs: a batch of 20 runs slab 0 only, a batch of 50 both."""
        from repro.parallel.daemon import SlabDaemon
        counts = []
        dispatch = SlabDaemon.dispatch

        def spy(self, plan_id, n_slabs=None):
            counts.append(n_slabs)
            return dispatch(self, plan_id, n_slabs)

        monkeypatch.setattr(SlabDaemon, "dispatch", spy)

        async def main():
            async with PricingGateway(backend="daemon", n_workers=2,
                                      slab_bytes=1 << 24) as gw:
                for tier in ("parallel", "greeks", "scenario"):
                    for m in (20, 50):
                        req = _req(m, vol=0.15 + m * 1e-3, tier=tier)
                        res = await gw.submit(req)
                        assert res.digest() == \
                            serial_reference(req).digest(), (tier, m)

        asyncio.run(main())
        assert counts == [1, 2] * 3

"""Load generator: determinism, Poisson arrivals, open-loop driving."""

import asyncio
import time

import numpy as np
import pytest

from repro.errors import ExperimentError, GatewayError
from repro.serve import (PricingGateway, poisson_arrivals, run_open_loop,
                         synth_requests)


class TestSynthRequests:
    def test_deterministic_for_a_seed(self):
        a = synth_requests(16, seed=7)
        b = synth_requests(16, seed=7)
        for ra, rb in zip(a, b):
            assert ra.signature == rb.signature
            assert np.array_equal(ra.S, rb.S)

    def test_respects_opts_range_and_signature_count(self):
        reqs = synth_requests(64, opts_range=(3, 9), n_signatures=2)
        assert all(3 <= r.n <= 9 for r in reqs)
        assert len({r.signature for r in reqs}) <= 2

    def test_unbatchable_tier_fails_fast(self):
        with pytest.raises(GatewayError):
            synth_requests(4, tier="implied")

    def test_bad_args_rejected(self):
        with pytest.raises(ExperimentError):
            synth_requests(0)
        with pytest.raises(ExperimentError):
            synth_requests(4, opts_range=(8, 2))


class TestPoissonArrivals:
    def test_saturation_mode_is_all_at_zero(self):
        assert poisson_arrivals(5, 0.0) == [0.0] * 5

    def test_sorted_positive_and_sized(self):
        times = poisson_arrivals(100, 200.0, n_clients=8, seed=3)
        assert len(times) == 100
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_mean_gap_tracks_rate(self):
        times = poisson_arrivals(4000, 500.0, n_clients=16, seed=5)
        # 4000 arrivals at 500/s should span roughly 8s.
        assert 6.0 < times[-1] < 10.0

    def test_deterministic_for_a_seed(self):
        assert (poisson_arrivals(50, 100.0, seed=9)
                == poisson_arrivals(50, 100.0, seed=9))


class TestRunOpenLoop:
    def test_drives_and_accounts(self):
        reqs = synth_requests(12, opts_range=(4, 8))
        arrivals = poisson_arrivals(12, 0.0)

        async def main():
            async with PricingGateway(backend="serial",
                                      max_wait_s=0.002) as gw:
                return await run_open_loop(gw, reqs, arrivals,
                                           keep_results=True)
        load = asyncio.run(main())
        assert load["n"] == 12 and load["n_ok"] == 12
        assert load["n_shed"] == 0 and load["n_error"] == 0
        assert load["sustained_rps"] > 0
        for rec in load["records"]:
            assert rec["ok"]
            assert rec["latency_s"] >= rec["late_s"] >= 0
            assert rec["result"].n == rec["n_options"]

    def test_blocked_loop_shows_in_latency_from_due_time(self):
        """The first send blocks the event loop past the second
        request's due time; the second request's latency must count
        that wait, not start when the loop finally sent it."""
        reqs = synth_requests(2, opts_range=(4, 8))

        class StallingGateway:
            def __init__(self, gw):
                self.gw = gw
                self.stalled = False

            async def submit(self, req):
                if not self.stalled:
                    self.stalled = True
                    time.sleep(0.3)      # on the loop, deliberately
                return await self.gw.submit(req)

        async def main():
            async with PricingGateway(backend="serial") as gw:
                return await run_open_loop(StallingGateway(gw), reqs,
                                           [0.0, 0.1])
        load = asyncio.run(main())
        assert load["n_ok"] == 2
        second = load["records"][1]
        assert second["late_s"] >= 0.19
        assert second["latency_s"] >= second["late_s"]

    def test_misaligned_schedules_rejected(self):
        async def main():
            async with PricingGateway(backend="serial") as gw:
                with pytest.raises(ExperimentError):
                    await run_open_loop(gw, synth_requests(3), [0.0])
        asyncio.run(main())

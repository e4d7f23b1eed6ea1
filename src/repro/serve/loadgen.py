"""Open-loop Poisson load generation for the serving bench.

**Open-loop** means arrivals are scheduled by the clock, not by
completions: every client fires its requests at pre-drawn absolute
times whether or not earlier ones have returned.  This is the arrival
model that actually stresses a batching server — a closed loop
self-throttles to the server's pace and can never expose queueing
collapse — and the one the serving-latency literature measures under.

Each of ``n_clients`` clients draws an independent Poisson process at
``rate / n_clients`` (their superposition is a Poisson process at
``rate``) and an independent request mix; everything derives from one
seed, so a load run is exactly reproducible — the property the digest
gate leans on.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from ..errors import ExperimentError, GatewayError, GatewayOverloadError
from .request import PricingRequest
from .workloads import adapter_for


def synth_requests(n: int, *, kernel: str = "black_scholes",
                   tier: str = "parallel", opts_range=(8, 64),
                   n_signatures: int = 4, seed: int = 2012) -> list:
    """``n`` deterministic small pricing requests.

    Contract counts draw uniformly from ``opts_range``; rate/vol draw
    from ``n_signatures`` distinct (rate, vol) pairs, so coalesced
    batches mix parameters (the gateway queues by tier and streams
    rate/vol per option), not just one hot pair.
    """
    if n < 1:
        raise ExperimentError("n must be >= 1")
    lo, hi = int(opts_range[0]), int(opts_range[1])
    if lo < 1 or hi < lo:
        raise ExperimentError(f"bad opts_range {opts_range!r}")
    adapter_for(kernel, tier)                    # fail fast
    rng = np.random.default_rng(seed)
    sigs = [(0.05 + 0.01 * i, 0.20 + 0.05 * i)
            for i in range(max(1, int(n_signatures)))]
    out = []
    for _ in range(n):
        m = int(rng.integers(lo, hi + 1))
        rate, vol = sigs[int(rng.integers(len(sigs)))]
        out.append(PricingRequest(
            S=rng.uniform(10.0, 200.0, m),
            X=rng.uniform(10.0, 200.0, m),
            T=rng.uniform(0.1, 3.0, m),
            rate=rate, vol=vol, kernel=kernel, tier=tier))
    return out


def poisson_arrivals(n: int, rate: float, *, n_clients: int = 64,
                     seed: int = 2012) -> list:
    """Absolute send times (seconds from run start) for ``n`` requests.

    ``n_clients`` independent Poisson streams at ``rate / n_clients``
    each, interleaved; the i-th returned time belongs to the i-th
    request.  ``rate <= 0`` means "as fast as possible": every request
    is due at t=0 (the saturation/capacity configuration).
    """
    if n < 1:
        raise ExperimentError("n must be >= 1")
    if rate <= 0:
        return [0.0] * n
    n_clients = max(1, min(int(n_clients), n))
    rng = np.random.default_rng(seed + 7)
    per_client = rate / n_clients
    times = []
    for c in range(n_clients):
        k = n // n_clients + (1 if c < n % n_clients else 0)
        gaps = rng.exponential(1.0 / per_client, k)
        times.extend(np.cumsum(gaps))
    times.sort()
    return [float(t) for t in times[:n]]


async def run_open_loop(gateway, requests, arrivals, *,
                        keep_results: bool = False) -> dict:
    """Drive ``requests`` through ``gateway`` at the ``arrivals``
    schedule; returns per-request records plus wall-clock totals.

    Every request is its own task that sleeps until its absolute send
    time — in-flight count is whatever the arrival process produces,
    never throttled by completions.  Records carry per-request latency
    timed from the instant the request was **due** (not from when the
    loop got round to sending it, which would hide the delay a stalled
    loop imposes on every later arrival — coordinated omission), how
    late it was sent (``late_s`` = sent − due) and the shed/error
    outcome; with ``keep_results`` each record also keeps ``(request,
    result)`` for post-hoc digest verification outside the timed
    region.
    """
    if len(requests) != len(arrivals):
        raise ExperimentError("requests and arrivals must align")
    clock = time.perf_counter
    wall0 = clock()
    records = [None] * len(requests)

    async def one(i: int, req: PricingRequest, due: float) -> None:
        due += wall0
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = clock()
        due = min(due, sent)     # a timer may fire a clock tick early
        rec = {"i": i, "n_options": req.n, "sent_s": sent - wall0,
               "late_s": sent - due}
        try:
            result = await gateway.submit(req)
        except GatewayOverloadError:
            rec.update(ok=False, shed=True, latency_s=clock() - due)
        except GatewayError as exc:
            rec.update(ok=False, shed=False, error=str(exc),
                       latency_s=clock() - due)
        else:
            done = clock()
            rec.update(ok=True, shed=False, latency_s=done - due,
                       done_s=done - wall0,
                       batch_requests=result.batch_requests,
                       batch_options=result.batch_options)
            if keep_results:
                rec["request"] = req
                rec["result"] = result
        records[i] = rec

    await asyncio.gather(*(one(i, r, d) for i, (r, d)
                           in enumerate(zip(requests, arrivals))))
    wall = time.perf_counter() - wall0
    done = [r for r in records if r["ok"]]
    last_done = max((r["done_s"] for r in done), default=wall)
    return {
        "records": records,
        "n": len(records),
        "n_ok": len(done),
        "n_shed": sum(1 for r in records if r.get("shed")),
        "n_error": sum(1 for r in records
                       if not r["ok"] and not r.get("shed")),
        "wall_s": wall,
        # Drain-through time: first send is t=0 by construction.
        "span_s": last_done,
        "sustained_rps": (len(done) / last_done
                          if last_done > 0 else float("inf")),
    }

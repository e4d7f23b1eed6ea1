"""Serving loadtest: the data behind ``BENCH_serving.json``.

Two phases, both driving the in-process
:class:`~repro.serve.PricingGateway` with the open-loop generator from
:mod:`repro.serve.loadgen` (the TCP wrapper is deliberately bypassed:
JSON marshalling would swamp the dispatch costs under test).

**Capacity** — the dynamic-batching headline.  ``n_clients``
concurrent open-loop clients fire a fixed request set at saturation
(every request due at t=0) through two gateways that differ *only* in
coalescing: the batched one is the shipped default (work-conserving
dispatch: whatever queued while the last batch priced rides the next
one, up to ``max_batch`` options), the per-request one
(``max_batch_requests=1``) prices every request as its own batch — the
classic one-caller dispatch loop PRs 5–7 optimized.  Sustained req/s
is drain-through (completions over the span from first send to last
completion), and ``speedup`` is the ratio the >= 5x mark
(``gate_5x``, reported, never an exit code) reads.

**Latency** — one row per arrival rate, each a fresh default gateway
under Poisson load; the row records p50/p99/p999 latency timed from
each request's *due* time, ``late_p99_ms`` (how late the generator
sent), the batch-size distribution and sheds.  It records no req/s:
below saturation that is the arrival schedule's own rate.  Like
``gate_5x`` these are reported figures: perfbench's ``serve_*``
workloads own capacity and latency verdicts.

Before either phase times anything, each gateway compiles every
canonical width its traffic can reach (:func:`_reachable_widths`), so
a timed window prices warm plans only; each row records ``compiles``,
the plan-cache misses inside its window, and a non-zero count fails
the run.

**Digests** — every scattered result (both phases, both capacity
modes) is md5-compared against :func:`~repro.serve.workloads
.reference_result` pricing that request *alone* on the serial backend.
Bit-identity here is what licenses coalescing at all; drivers exit
non-zero on any mismatch.
"""

from __future__ import annotations

import asyncio
import sys

import numpy as np

from ..errors import ExperimentError
from ..serve.batcher import bucket_width
from ..serve.gateway import PricingGateway
from ..serve.loadgen import poisson_arrivals, run_open_loop, synth_requests
from ..serve.request import PricingRequest
from ..serve.workloads import reference_result
from .stats import latency_summary, percentile


def _run(coro):
    return asyncio.run(coro)


def _reachable_widths(gw: PricingGateway, requests) -> list:
    """Every canonical width a batch of ``requests`` can take in
    ``gw``: a batch is a queue prefix of at most ``max_batch`` options
    and ``max_batch_requests`` requests, so its total runs from the
    smallest request to the largest such sum."""
    sizes = sorted(r.n for r in requests)
    top = sum(sizes[-(gw.max_batch_requests or len(sizes)):])
    lo = bucket_width(sizes[0], gw.min_bucket, gw.max_batch)
    hi = bucket_width(min(top, gw.max_batch), gw.min_bucket, gw.max_batch)
    return [1 << k for k in range(lo.bit_length() - 1, hi.bit_length())]


async def _drive(gateway_kw: dict, requests, arrivals,
                 keep_results: bool):
    async with PricingGateway(**gateway_kw) as gw:
        # Compile every reachable width (and warm the CDF's per-thread
        # workspace) outside the timed region, one request of exactly
        # that width each: a compile costs far more than a warm run,
        # and whichever mode met it in its window would eat it.
        r = requests[0]
        for width in _reachable_widths(gw, requests):
            await gw.submit(PricingRequest(
                np.resize(r.S, width), np.resize(r.X, width),
                np.resize(r.T, width), r.rate, r.vol, r.kernel, r.tier))
        warm_misses = gw.stats["plan_cache"]["misses"]
        gw.reset_stats()
        load = await run_open_loop(gw, requests, arrivals,
                                   keep_results=keep_results)
        stats = gw.stats
    stats["compiles"] = stats["plan_cache"]["misses"] - warm_misses
    return load, stats


def _verify(records, executor, mismatches: list) -> int:
    """Digest-compare kept (request, result) pairs against solo serial
    pricing; returns the number checked, appends mismatch notes."""
    checked = 0
    for rec in records:
        if not rec.get("ok") or "result" not in rec:
            continue
        got = rec["result"].digest()
        want = reference_result(rec["request"], executor).digest()
        checked += 1
        if got != want:
            mismatches.append(
                f"request {rec['i']} ({rec['n_options']} opts): "
                f"scattered {got} != serial {want}")
    return checked


def measure_serving(*, backend: str = "serial",
                    n_workers: int | None = None,
                    kernel: str = "black_scholes",
                    tier: str = "parallel",
                    n_clients: int = 64,
                    capacity_requests: int = 768,
                    latency_requests: int = 400,
                    rates=(100.0, 200.0, 400.0),
                    opts_range=(8, 64),
                    n_signatures: int = 4,
                    max_batch: int = 4096,
                    seed: int = 2012,
                    verify_digests: bool = True) -> dict:
    """Run both phases; returns the ``BENCH_serving.json`` payload."""
    if n_clients < 1 or capacity_requests < 1 or latency_requests < 1:
        raise ExperimentError("client/request counts must be >= 1")
    # Warm batches price on the event loop, but a compile runs on a
    # helper thread and shares the GIL with it; the default 5 ms switch
    # interval lets either hold it for several times the millisecond
    # latencies measured here.  1 ms caps that stall.
    old_switch = sys.getswitchinterval()
    sys.setswitchinterval(0.001)
    try:
        return _measure(backend, n_workers, kernel, tier, n_clients,
                        capacity_requests, latency_requests, rates,
                        opts_range, n_signatures, max_batch, seed,
                        verify_digests)
    finally:
        sys.setswitchinterval(old_switch)


def _measure(backend, n_workers, kernel, tier, n_clients,
             capacity_requests, latency_requests, rates, opts_range,
             n_signatures, max_batch, seed, verify_digests) -> dict:
    from ..parallel.slab import SlabExecutor

    mismatches: list = []
    digests_checked = 0
    ref_ex = SlabExecutor("serial") if verify_digests else None

    base_kw = dict(backend=backend, n_workers=n_workers,
                   max_batch=max_batch)

    # ---- capacity phase --------------------------------------------
    cap_requests = synth_requests(
        capacity_requests, kernel=kernel, tier=tier,
        opts_range=opts_range, n_signatures=n_signatures, seed=seed)
    cap_arrivals = poisson_arrivals(capacity_requests, 0.0,
                                    n_clients=n_clients, seed=seed)
    capacity = {}
    for mode, extra in (
            ("batched", {}),
            ("per_request", dict(max_batch_requests=1))):
        kw = {**base_kw, **extra,
              "max_pending": capacity_requests + n_clients}
        load, stats = _run(_drive(kw, cap_requests, cap_arrivals,
                                  keep_results=verify_digests))
        if load["n_error"]:
            raise ExperimentError(
                f"capacity/{mode}: {load['n_error']} requests errored")
        if verify_digests:
            digests_checked += _verify(load["records"], ref_ex,
                                       mismatches)
        capacity[mode] = {
            "sustained_rps": round(load["sustained_rps"], 2),
            "span_s": round(load["span_s"], 4),
            "n_ok": load["n_ok"],
            "n_shed": load["n_shed"],
            "latency": latency_summary(
                [r["latency_s"] for r in load["records"] if r["ok"]],
                scale=1e3, suffix="_ms"),
            "batch_requests_hist": stats["batch_requests_hist"],
            "batch_options_hist": stats["batch_options_hist"],
            "batches": stats["batches"],
            "compiles": stats["compiles"],
            "service_ms": stats["service"],
            "plan_cache": stats["plan_cache"],
        }
    per_rps = capacity["per_request"]["sustained_rps"]
    speedup = (capacity["batched"]["sustained_rps"] / per_rps
               if per_rps > 0 else float("inf"))
    capacity["speedup"] = round(speedup, 2)
    capacity["gate_5x"] = bool(speedup >= 5.0)

    # ---- latency phase ---------------------------------------------
    latency_rows = []
    for i, rate in enumerate(rates, 1):
        reqs = synth_requests(
            latency_requests, kernel=kernel, tier=tier,
            opts_range=opts_range, n_signatures=n_signatures,
            seed=seed + 1000 * i)
        arrivals = poisson_arrivals(
            latency_requests, float(rate), n_clients=n_clients,
            seed=seed + 1000 * i)
        load, stats = _run(_drive(base_kw, reqs, arrivals,
                                  keep_results=verify_digests))
        if verify_digests:
            digests_checked += _verify(load["records"], ref_ex,
                                       mismatches)
        latency_rows.append({
            "rate_rps": float(rate),
            "n": load["n"],
            "n_ok": load["n_ok"],
            "n_shed": load["n_shed"],
            "n_error": load["n_error"],
            "latency_ms": latency_summary(
                [r["latency_s"] for r in load["records"] if r["ok"]],
                scale=1e3, suffix="_ms"),
            "late_p99_ms": round(1e3 * percentile(
                [r["late_s"] for r in load["records"]], 0.99), 3),
            "service_p99_ms": round(
                stats["service"].get("p99_ms", 0.0), 3),
            "batches": stats["batches"],
            "compiles": stats["compiles"],
            "batch_requests_hist": stats["batch_requests_hist"],
        })
    if ref_ex is not None:
        ref_ex.close()

    return {
        "kernel": kernel,
        "tier": tier,
        "backend": backend,
        "n_clients": n_clients,
        "opts_range": list(opts_range),
        "n_signatures": n_signatures,
        "max_batch": max_batch,
        "seed": seed,
        "capacity": capacity,
        "latency": latency_rows,
        "digests_checked": digests_checked,
        "digest_mismatches": mismatches,
        "digests_ok": not mismatches,
    }


def serving_result(data: dict):
    """Render :func:`measure_serving` output through the standard
    experiment reporters."""
    from .experiments import ExperimentResult
    rows = []
    for r in data["latency"]:
        lat = r["latency_ms"]
        rows.append((
            r["rate_rps"], r["n_ok"], r["n_shed"],
            round(lat.get("p50_ms", 0.0), 2),
            round(lat.get("p99_ms", 0.0), 2),
            round(lat.get("p999_ms", 0.0), 2),
        ))
    cap = data["capacity"]
    return ExperimentResult(
        exp_id="serving",
        title="Serving loadtest: open-loop Poisson arrivals vs "
              "dynamic micro-batching",
        headers=("rate req/s", "ok", "shed", "p50 ms", "p99 ms",
                 "p999 ms"),
        rows=rows,
        notes=[
            f"{data['kernel']}/{data['tier']} backend={data['backend']} "
            f"clients={data['n_clients']} opts/req={data['opts_range']} "
            f"signatures={data['n_signatures']} seed={data['seed']}",
            f"capacity (saturation, drain-through): batched "
            f"{cap['batched']['sustained_rps']} req/s vs per-request "
            f"{cap['per_request']['sustained_rps']} req/s = "
            f"{cap['speedup']}x "
            f"[{'PASS' if cap['gate_5x'] else 'MISS'} >=5x]",
            f"digests: {data['digests_checked']} scattered results "
            f"vs solo serial reference, "
            f"{len(data['digest_mismatches'])} mismatches",
            "latency is due time -> scattered result under open-loop "
            "arrivals; every reachable width compiles before the "
            "timed windows",
        ],
    )

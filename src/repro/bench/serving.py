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

**Latency** — the budget trade.  A grid of (arrival rate, ``max_wait``
budget) combos — budget 0 is the default, no linger — each a fresh
gateway under Poisson load; per combo the row records sustained req/s,
p50/p99/p999 latency timed from each request's *due* time,
``late_p99_ms`` (how late the generator sent), the batch-size
distribution and sheds.  ``budget_ok`` asks whether tail latency
respected the configured budget at that rate: p99 must stay within
``max_wait`` plus an explicit allowance for the unavoidable parts —
head-of-line blocking on the single dispatch thread (one batch-service
p99 per live tier: every signature of a tier shares one queue, and a
loadtest drives one tier), the request's own batch service, and timer/
scheduling slack — with the allowance reported in the row.  Like
``gate_5x`` it is a reported figure: perfbench's ``serve_*`` workloads
own capacity and latency verdicts.

**Digests** — every scattered result (both phases, both capacity
modes) is md5-compared against :func:`~repro.serve.workloads
.reference_result` pricing that request *alone* on the serial backend.
Bit-identity here is what licenses coalescing at all; drivers exit
non-zero on any mismatch.
"""

from __future__ import annotations

import asyncio
import sys

from ..errors import ExperimentError
from ..serve.gateway import PricingGateway
from ..serve.loadgen import poisson_arrivals, run_open_loop, synth_requests
from ..serve.workloads import reference_result
from .stats import latency_summary, percentile

#: Latency-phase scheduling slack added to the budget-compliance
#: allowance (ms): asyncio timer granularity + event-loop wakeup.
SCHED_SLACK_MS = 2.0


def _run(coro):
    return asyncio.run(coro)


async def _drive(gateway_kw: dict, requests, arrivals,
                 keep_results: bool):
    async with PricingGateway(**gateway_kw) as gw:
        # Warm the hot-signature plan (and the CDF's per-thread
        # workspace) outside the timed region: the very first kernel run
        # in a process costs far more than a steady-state one, and
        # whichever mode ran first would otherwise eat it.
        await gw.submit(requests[0])
        gw.reset_stats()
        load = await run_open_loop(gw, requests, arrivals,
                                   keep_results=keep_results)
        stats = gw.stats
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
                    budgets_ms=(0.0, 1.0, 2.0, 5.0),
                    opts_range=(8, 64),
                    n_signatures: int = 4,
                    max_batch: int = 4096,
                    seed: int = 2012,
                    verify_digests: bool = True) -> dict:
    """Run both phases; returns the ``BENCH_serving.json`` payload."""
    if n_clients < 1 or capacity_requests < 1 or latency_requests < 1:
        raise ExperimentError("client/request counts must be >= 1")
    # The accept path (event loop) and the dispatch thread share the
    # GIL; the default 5 ms switch interval lets either hold it long
    # enough to blow a millisecond latency budget.  1 ms caps that
    # stall — measured: roughly halves p99 at these arrival rates.
    old_switch = sys.getswitchinterval()
    sys.setswitchinterval(0.001)
    try:
        return _measure(backend, n_workers, kernel, tier, n_clients,
                        capacity_requests, latency_requests, rates,
                        budgets_ms, opts_range, n_signatures, max_batch,
                        seed, verify_digests)
    finally:
        sys.setswitchinterval(old_switch)


def _measure(backend, n_workers, kernel, tier, n_clients,
             capacity_requests, latency_requests, rates, budgets_ms,
             opts_range, n_signatures, max_batch, seed,
             verify_digests) -> dict:
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
    combo = 0
    for rate in rates:
        for budget_ms in budgets_ms:
            combo += 1
            reqs = synth_requests(
                latency_requests, kernel=kernel, tier=tier,
                opts_range=opts_range, n_signatures=n_signatures,
                seed=seed + 1000 * combo)
            arrivals = poisson_arrivals(
                latency_requests, float(rate), n_clients=n_clients,
                seed=seed + 1000 * combo)
            kw = {**base_kw, "max_wait_s": float(budget_ms) / 1e3}
            load, stats = _run(_drive(kw, reqs, arrivals,
                                      keep_results=verify_digests))
            if verify_digests:
                digests_checked += _verify(load["records"], ref_ex,
                                           mismatches)
            lat = latency_summary(
                [r["latency_s"] for r in load["records"] if r["ok"]],
                scale=1e3, suffix="_ms")
            service_p99 = stats["service"].get("p99_ms", 0.0)
            # Head-of-line: on the single dispatch thread a flush can
            # queue behind one in-flight batch per live tier — the one
            # this run drives, whatever its signatures — plus its own
            # service, plus timer/scheduler slack.
            allowance_ms = 2 * service_p99 + SCHED_SLACK_MS
            row = {
                "rate_rps": float(rate),
                "budget_ms": float(budget_ms),
                "n": load["n"],
                "n_ok": load["n_ok"],
                "n_shed": load["n_shed"],
                "n_error": load["n_error"],
                "sustained_rps": round(load["sustained_rps"], 2),
                "latency_ms": lat,
                "late_p99_ms": round(1e3 * percentile(
                    [r["late_s"] for r in load["records"]], 0.99), 3),
                "service_p99_ms": round(service_p99, 3),
                "allowance_ms": round(allowance_ms, 3),
                "budget_ok": bool(
                    lat.get("p99_ms", 0.0)
                    <= float(budget_ms) + allowance_ms),
                "batches": stats["batches"],
                "batch_requests_hist": stats["batch_requests_hist"],
            }
            latency_rows.append(row)
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
            r["rate_rps"], r["budget_ms"], r["n_ok"], r["n_shed"],
            r["sustained_rps"],
            round(lat.get("p50_ms", 0.0), 2),
            round(lat.get("p99_ms", 0.0), 2),
            round(lat.get("p999_ms", 0.0), 2),
            "ok" if r["budget_ok"] else "OVER",
        ))
    cap = data["capacity"]
    return ExperimentResult(
        exp_id="serving",
        title="Serving loadtest: open-loop Poisson arrivals vs "
              "dynamic micro-batching",
        headers=("rate req/s", "budget ms", "ok", "shed", "req/s",
                 "p50 ms", "p99 ms", "p999 ms", "budget"),
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
            "budget = p99 <= max_wait + allowance (one batch-service "
            "p99 per live tier + own service + scheduler slack); "
            "latency is due time -> scattered result under open-loop "
            "arrivals",
        ],
    )

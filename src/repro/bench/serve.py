"""Steady-state serving benchmark: warm plans vs cold dispatch.

A pricing service doesn't run a kernel once — it answers a stream of
same-shaped requests.  The cold path pays compile work on every call
(payload validation, slab planning, write-plan checks, workspace
allocation, RNG jump-ahead); a warm :class:`~repro.plan.ExecutionPlan`
paid all of it once and replays the hot loop with zero array
allocations.  This bench measures exactly that gap, per kernel and
backend:

* **warm** — ``plan.run()`` on a compiled plan, ``samples`` times;
  p50/p99 latency and throughput.
* **cold** — ``compile_plan(...) + run + close`` per call: what a
  server without a plan cache pays per request, and what a tier's
  registered ``fn`` (the one-shot) does.

Each record also carries, on the ``serial``/``thread`` backends, the
tracemalloc **allocation audit** of one warm call (see
:mod:`repro.plan.audit`; the peak budget callers should apply is
:data:`PEAK_NOISE_BUDGET`).  A separate section exercises the
:class:`~repro.plan.PlanCache` against a request mix and reports
hit/miss/eviction counts.
"""

from __future__ import annotations

import dataclasses

from ..config import SMALL_SIZES, SMOKE_SIZES, WorkloadSizes
from ..errors import ExperimentError
from .stats import percentile as _percentile
from .stats import sorted_latencies as _latencies

#: Transient-peak noise budget for a warm run (bytes): a little above
#: numpy's fixed ~64 KiB nditer working buffer (one per operand of a
#: casting ufunc over strided views, so up to three coexist), far below
#: any real per-call workload array.
PEAK_NOISE_BUDGET = 256 * 1024


def measure_steady_state(sizes: WorkloadSizes = SMALL_SIZES,
                         backends=("serial", "thread"),
                         samples: int = 30, cold_samples: int = 5,
                         seed: int = 2012, audit: bool = True) -> dict:
    """The data behind ``BENCH_steady_state.json``.

    Per parallel kernel x backend: warm/cold latencies and
    (single-process backends) the allocation audit.
    ``samples`` paces the warm loop; the cold loop recompiles per call,
    so it gets the smaller ``cold_samples``.
    """
    from .. import registry
    from ..plan import PlanCache, audit_allocations, compile_plan, plan_key

    if samples < 1 or cold_samples < 1:
        raise ExperimentError("samples must be >= 1")
    records = []
    for kernel in registry.parallel_kernels():
        spec = registry.workload(kernel)
        for backend in backends:
            payload = spec.build(sizes, seed=seed)
            items = spec.items(payload)
            plan = compile_plan(kernel, "parallel", payload,
                                backend=backend)
            warm = _latencies(plan.run, samples)

            def cold_call():
                p = compile_plan(kernel, "parallel", payload,
                                 backend=backend)
                try:
                    p.run()
                finally:
                    p.close()

            cold = _latencies(cold_call, cold_samples, warmup=1)
            record = {
                "kernel": kernel,
                "backend": backend,
                "items": items,
                "planned": plan.planned,
                "warm_p50_s": _percentile(warm, 0.50),
                "warm_p99_s": _percentile(warm, 0.99),
                "cold_p50_s": _percentile(cold, 0.50),
                "cold_p99_s": _percentile(cold, 0.99),
            }
            record["warm_throughput"] = (
                items / record["warm_p50_s"] if record["warm_p50_s"] > 0
                else float("inf"))
            record["cold_vs_warm_p50"] = (
                record["cold_p50_s"] / record["warm_p50_s"]
                if record["warm_p50_s"] > 0 else float("inf"))
            if audit and backend in ("serial", "thread"):
                a = audit_allocations(plan.run)
                record["audit"] = {
                    "clean": a.clean,
                    "held_blocks": a.numpy_blocks,
                    "held_bytes": a.numpy_bytes,
                    "peak_bytes": a.peak_bytes,
                    "peak_within_budget": a.peak_bytes <= PEAK_NOISE_BUDGET,
                }
            plan.close()
            records.append(record)

    # Small-batch serving: the regime that motivates plans.  At a few
    # hundred options per request the kernel work is microseconds, so
    # the cold path is mostly setup (validation, slab planning, arena
    # allocation) and the warm plan's advantage is largest.
    spec = registry.workload("black_scholes")
    small_rows = []
    for nopt in (128, 512, 2048):
        sz = dataclasses.replace(sizes, black_scholes_nopt=nopt)
        payload = spec.build(sz, seed=seed)
        plan = compile_plan("black_scholes", "parallel", payload,
                            backend="serial")
        warm = _latencies(plan.run, samples)

        def cold_small():
            p = compile_plan("black_scholes", "parallel", payload,
                             backend="serial")
            try:
                p.run()
            finally:
                p.close()

        cold = _latencies(cold_small, cold_samples, warmup=1)
        plan.close()
        row = {
            "nopt": nopt,
            "warm_p50_s": _percentile(warm, 0.50),
            "cold_p50_s": _percentile(cold, 0.50),
        }
        row["cold_vs_warm_p50"] = (
            row["cold_p50_s"] / row["warm_p50_s"]
            if row["warm_p50_s"] > 0 else float("inf"))
        small_rows.append(row)

    # Plan-cache behaviour under a same-shape request mix: repeated
    # same-width batches hit, a width change misses and (at maxsize 2,
    # third distinct shape) evicts.
    cache = PlanCache(maxsize=2)
    cache_kernel = "black_scholes"
    cache_spec = registry.workload(cache_kernel)
    for nopt in (512, 512, 512, 1024, 512, 2048, 1024):
        sz = dataclasses.replace(sizes, black_scholes_nopt=nopt)
        payload = cache_spec.build(sz, seed=seed)
        key = plan_key(cache_kernel, "parallel", "serial", 1, payload)
        plan = cache.get(key)
        if plan is None:
            plan = compile_plan(cache_kernel, "parallel", payload,
                                backend="serial")
            cache.put(key, plan)
        plan.run(payload)
    cache_stats = cache.stats
    cache.clear()
    return {
        "sizes": "smoke" if sizes == SMOKE_SIZES else
                 ("small" if sizes == SMALL_SIZES else "custom"),
        "backends": list(backends),
        "samples": samples,
        "cold_samples": cold_samples,
        "seed": seed,
        "peak_noise_budget": PEAK_NOISE_BUDGET,
        "kernels": records,
        "small_batch": small_rows,
        "cache": cache_stats,
    }


def steady_state_result(data: dict):
    """Render :func:`measure_steady_state` output through the standard
    experiment reporters."""
    from .experiments import ExperimentResult
    rows = []
    for k in data["kernels"]:
        audit = k.get("audit") or {}
        rows.append((
            k["kernel"], k["backend"], k["items"],
            round(k["warm_p50_s"] * 1e3, 3),
            round(k["warm_p99_s"] * 1e3, 3),
            round(k["cold_p50_s"] * 1e3, 3),
            round(k["cold_vs_warm_p50"], 2),
            ("clean" if audit.get("clean") else "held!")
            if audit else "-",
        ))
    cache = data["cache"]
    small = ", ".join(
        f"{r['nopt']} opts {r['cold_vs_warm_p50']:.1f}x"
        for r in data.get("small_batch", ()))
    return ExperimentResult(
        exp_id="steady_state",
        title="Steady-state serving: warm plan vs cold compile-per-call",
        headers=("kernel", "backend", "items", "warm p50 ms",
                 "warm p99 ms", "cold p50 ms", "cold/warm", "audit"),
        rows=rows,
        notes=[
            f"samples={data['samples']} cold_samples={data['cold_samples']} "
            f"sizes={data['sizes']} seed={data['seed']}",
            "warm = plan.run() on a compiled ExecutionPlan; cold = "
            "compile_plan + run + close per call; audit = zero held "
            "numpy allocations in one warm call (serial/thread)",
            f"small-batch black_scholes cold/warm p50: {small}",
            f"plan cache over a mixed-width request stream: "
            f"{cache['hits']} hits, {cache['misses']} misses, "
            f"{cache['evictions']} evictions",
        ],
    )

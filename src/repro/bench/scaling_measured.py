"""Measured core-scaling study (the paper's Figs. 6 and 8, on the host).

The paper's headline curves plot throughput versus hardware threads —
16 on SNB-EP, 240 on KNC — for each kernel's best parallel code.
:mod:`repro.bench.scaling_exp` *projects* those curves from the machine
models; this module *measures* them: every registered parallel-tier
kernel is timed at 1/2/4/…/cpu_count workers on each requested backend
(``serial``/``thread``/``process``), and each point reports speedup
over the single-worker serial baseline plus parallel efficiency
(speedup / workers), side by side with the modeled SNB-EP/KNC curves.

The measurement doubles as a determinism audit: at **every** point the
result digest must equal the serial baseline digest — the slab plan is
a pure function of ``(n, slab_bytes, bytes_per_item, n_workers)`` and
every registered parallel tier is slab-size independent, so a mismatch
anywhere is a real bug and raises :class:`~repro.errors.ExperimentError`
rather than silently shipping a wrong curve.

Interpreting the pooled backends: ``thread`` scales only as far as
NumPy ufuncs release the GIL (large-array tiers scale, Python-bound
tiers flatline — exactly the gap this study exists to expose);
``process`` sidesteps the GIL by mapping slabs out of shared-memory
segments at the cost of one staging copy plus per-slab pickling per
dispatch; ``daemon`` keeps the process backend's GIL-free execution
but moves steady-state dispatch onto shared-memory descriptor rings,
eliminating the per-call pickling and queue hops.

Every point times ``plan.run`` of a plan compiled once for it
(:func:`~.harness.time_plan`), the path the gateway serves.

The study therefore also *measures the dispatch overhead itself*:
:func:`measure_dispatch_overhead` times an empty-body compiled
dispatch's ``run()`` (one one-item slab per worker, so the work is zero
and the transport is everything), and every point of the scaling study
records that per-run cost as ``dispatch_overhead_us`` — the
before/after number behind the daemon backend's acceptance criterion.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from ..config import SMALL_SIZES, WorkloadSizes
from ..errors import ExperimentError
from .harness import measure_pool_crossover, time_plan, timing_fields

#: Modeled platforms overlaid next to the measured points.
_MODEL_ARCHES = ("SNB-EP", "KNC")


def _digest(out: np.ndarray) -> str:
    return hashlib.md5(np.ascontiguousarray(out).tobytes()).hexdigest()


def _noop_slab(arrays, consts, a, b, slab):
    """Empty slab body: the dispatch-overhead probe.  Module-level so
    the out-of-process backends can pickle it by reference."""
    return None


def measure_dispatch_overhead(backend: str, n_workers: int,
                              slab_bytes: int | None = None,
                              inner: int = 100,
                              repeats: int = 5) -> float:
    """Steady-state per-run dispatch cost of one backend, in µs.

    Times ``inner`` back-to-back ``run()`` calls of one compiled
    dispatch of :func:`_noop_slab` over a plan with **one one-item slab
    per worker** (``bytes_per_item = slab_bytes`` forces the slab
    length to one), best of ``repeats`` rounds, after one warm-up run
    (pool spin-up); validation, staging and daemon pinning are paid at
    compile time, outside the loop.  With zero work per slab, what
    remains is pure transport: submission, scheduling and result
    collection — what perfbench's ``parallel.dispatch_us.*`` measures.
    This is the fixed per-run tax every real dispatch pays on top of
    its compute, the quantity the daemon backend's ring fabric exists
    to shrink.
    """
    from ..parallel import SlabExecutor
    from .stats import best_inner_us
    if inner < 1 or repeats < 1:
        raise ExperimentError("inner and repeats must be >= 1")
    with SlabExecutor(backend, n_workers=n_workers,
                      slab_bytes=slab_bytes) as ex:
        n = ex.n_workers
        dispatch = ex.compile_shm(_noop_slab, n,
                                  bytes_per_item=max(ex.slab_bytes, 1),
                                  sliced={"x": np.zeros(n)}, consts={},
                                  tag="noop")
        try:
            us = best_inner_us(dispatch.run, inner, repeats)
        finally:
            dispatch.close()
    return us


def _modeled_curves(kernel: str) -> dict | None:
    """Per-platform modeled ``{cores, speedup, efficiency}`` ladders for
    the kernel's best tier, or ``None`` when the kernel has no machine
    model (rng)."""
    from .. import registry
    if not registry.workload(kernel).modeled_gap:
        return None
    from ..arch.cost import CostModel
    from ..arch.spec import PLATFORMS
    from ..kernels import build_model
    from ..parallel import doubling_counts
    km = build_model(kernel)
    curves = {}
    for arch in PLATFORMS:
        if arch.name not in _MODEL_ARCHES:
            continue
        tp = km.best(arch.name)
        model = CostModel(arch)
        t1 = model.seconds(tp.trace, tp.ctx, cores=1)
        curves[arch.name] = [
            {"cores": c,
             "speedup": t1 / model.seconds(tp.trace, tp.ctx, cores=c),
             "efficiency": t1 / model.seconds(tp.trace, tp.ctx, cores=c) / c}
            for c in doubling_counts(arch.total_cores)
        ]
    return curves


def measure_scaling(sizes: WorkloadSizes = SMALL_SIZES,
                    backends: tuple = ("serial", "thread", "process",
                                       "daemon"),
                    worker_counts: tuple | None = None,
                    slab_bytes: int | None = None,
                    repeats: int = 3, seed: int = 2012,
                    kernels: tuple | None = None,
                    policy="fixed", crossover: bool = False) -> dict:
    """Time every parallel-tier kernel across backends × worker counts.

    ``worker_counts`` defaults to the doubling ladder ``1, 2, 4, …,
    cpu_count`` (the Fig. 6/8 x-axis).  Per kernel the workload is
    built once; the single-worker serial run is the baseline for every
    speedup/efficiency figure and the digest oracle for every point.
    Each ``backend × workers`` pair is additionally probed with
    :func:`measure_dispatch_overhead`; the per-call cost is recorded on
    every matching point (``dispatch_overhead_us``) and summarized
    under the root ``dispatch_overhead`` key.  Returns the JSON-ready
    dict behind ``BENCH_scaling.json``; raises
    :class:`~repro.errors.ExperimentError` if any point's digest
    disagrees with the serial baseline.

    ``policy`` (``"fixed"``/``"auto"``/path): under a non-fixed policy
    every pooled point's executor takes the policy's per-kernel
    ``min_parallel_bytes`` before timing (recorded per kernel), so the
    curves reflect the tuned runtime's dispatch decisions; digests stay
    policy-invariant because inline-vs-pool never changes slab values.

    ``crossover`` also runs :func:`~.harness.measure_pool_crossover` on
    the first requested pooled backend (``thread`` when there is none)
    at the widest worker count, and records its table under the
    ``crossover`` key.
    """
    from .. import registry
    from ..parallel import SlabExecutor, doubling_counts
    from ..tune import load_policy

    table = load_policy(policy)

    for backend in backends:
        if backend not in registry.BACKENDS:
            raise ExperimentError(
                f"unknown backend {backend!r}; want one of "
                f"{registry.BACKENDS}")
    cpu_count = os.cpu_count() or 1
    if worker_counts is None:
        worker_counts = tuple(doubling_counts(cpu_count))
    if any(w < 1 for w in worker_counts):
        raise ExperimentError("worker counts must be >= 1")
    names = registry.parallel_kernels()
    if kernels is not None:
        unknown = [k for k in kernels if k not in names]
        if unknown:
            raise ExperimentError(
                f"unknown parallel kernel(s) {unknown}; "
                f"registered: {list(names)}")
        names = tuple(k for k in names if k in kernels)

    # Transport cost per (backend, workers) pair: kernel-independent,
    # so measured once and stamped onto every matching point.
    overhead = {}
    for backend in backends:
        for w in worker_counts:
            overhead[(backend, w)] = measure_dispatch_overhead(
                backend, w, slab_bytes=slab_bytes)

    entries = []
    resolved_slab_bytes = None
    for kernel in names:
        applied_mpb = (table.min_parallel_bytes(kernel)
                       if table is not None else None)
        spec = registry.workload(kernel)
        tier = registry.parallel_tier(kernel)
        payload = spec.build(sizes, seed=seed)
        items = spec.items(payload)

        with SlabExecutor("serial", n_workers=1,
                          slab_bytes=slab_bytes) as base_ex:
            resolved_slab_bytes = base_ex.slab_bytes
            base_run, base_out = time_plan(
                registry.impl(kernel, tier, "serial"), payload, base_ex,
                items, repeats)
            base_digest = _digest(base_out)

        points = []
        for backend in backends:
            for w in worker_counts:
                if backend == "serial" and w == 1:
                    run, digest = base_run, base_digest
                else:
                    impl = registry.impl(kernel, tier, backend)
                    with SlabExecutor(backend, n_workers=w,
                                      slab_bytes=slab_bytes) as ex:
                        if applied_mpb is not None:
                            # Before compile: the plan freezes the
                            # inline-vs-pool decision.
                            ex.min_parallel_bytes = applied_mpb
                        run, out = time_plan(impl, payload, ex, items,
                                             repeats)
                        digest = _digest(out)
                if digest != base_digest:
                    raise ExperimentError(
                        f"{kernel}/{tier}[{backend}] at {w} workers "
                        f"diverged from the serial baseline digest — "
                        f"the backend broke slab determinism")
                speedup = (base_run.seconds / run.seconds
                           if run.seconds > 0 else float("inf"))
                point = {
                    "backend": backend,
                    "n_workers": w,
                    "rate": run.rate * spec.scale,
                    "speedup": speedup,
                    "efficiency": speedup / w,
                    "dispatch_overhead_us": overhead[(backend, w)],
                    "digest": digest,
                    "agrees": True,
                }
                point.update(timing_fields("time", run))
                points.append(point)

        entries.append({
            "kernel": kernel,
            "tier": tier,
            "items": items,
            "unit": spec.unit.strip(),
            "scale": spec.scale,
            "serial_digest": base_digest,
            "policy_min_parallel_bytes": applied_mpb,
            "points": points,
            "modeled": _modeled_curves(kernel),
        })
        for f, v in timing_fields("serial", base_run).items():
            entries[-1][f] = v

    data = {
        "cpu_count": cpu_count,
        "worker_counts": list(worker_counts),
        "backends": list(backends),
        "slab_bytes": resolved_slab_bytes,
        "repeats": repeats,
        "seed": seed,
        "policy_mode": (policy if isinstance(policy, str) else "pinned"),
        "dispatch_overhead": [
            {"backend": b, "n_workers": w, "us": round(us, 2)}
            for (b, w), us in overhead.items()
        ],
        "kernels": entries,
    }
    if crossover:
        data["crossover"] = measure_pool_crossover(
            backend=next((b for b in backends if b != "serial"), "thread"),
            n_workers=max(worker_counts), repeats=repeats, seed=seed)
    return data


def _modeled_note(kernel: str, modeled: dict | None) -> str | None:
    """One-line modeled-curve summary for a kernel (full-chip point)."""
    if not modeled:
        return None
    parts = []
    for arch, curve in modeled.items():
        last = curve[-1]
        parts.append(f"{arch} {last['cores']}c "
                     f"{last['speedup']:.1f}x ({last['efficiency']:.0%})")
    return f"{kernel} modeled full-chip: " + "; ".join(parts)


def scaling_result(data: dict):
    """Render :func:`measure_scaling` output as an
    :class:`~repro.bench.experiments.ExperimentResult` (one row per
    kernel × backend × worker count, modeled curves in the notes)."""
    from .experiments import ExperimentResult
    rows = []
    for k in data["kernels"]:
        for p in k["points"]:
            rows.append((
                k["kernel"], p["backend"], p["n_workers"],
                round(p["time_s"] * 1e3, 3),
                round(p["rate"], 3), k["unit"],
                round(p["speedup"], 2),
                round(p["efficiency"], 2),
                "yes" if p["agrees"] else "NO",
            ))
    notes = [
        f"host cpu_count={data['cpu_count']} "
        f"workers={data['worker_counts']} "
        f"backends={','.join(data['backends'])} "
        f"repeats={data['repeats']} seed={data['seed']}",
        "speedup = single-worker serial time / point time; "
        "efficiency = speedup / workers; every point's digest is "
        "verified against the serial baseline",
    ]
    for ov in data.get("dispatch_overhead", ()):
        notes.append(
            f"dispatch overhead {ov['backend']} w={ov['n_workers']}: "
            f"{ov['us']:.1f} us/call (empty-body compiled dispatch "
            f"round-trip)")
    for k in data["kernels"]:
        note = _modeled_note(k["kernel"], k["modeled"])
        if note:
            notes.append(note)
    return ExperimentResult(
        exp_id="scaling_measured",
        title="Measured core scaling (host wall clock vs modeled "
              "SNB-EP/KNC)",
        headers=("kernel", "backend", "workers", "best ms", "rate",
                 "unit", "speedup", "efficiency", "agrees"),
        rows=rows,
        notes=notes,
    )

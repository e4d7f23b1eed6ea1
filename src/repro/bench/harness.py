"""Functional benchmark harness.

Times the *functional* NumPy kernels on the host (wall clock, real
speedups between optimization tiers where Python can express them) and
pairs those with the machine-model throughput for SNB-EP and KNC.  The
workloads themselves are owned by the per-kernel
:class:`~repro.registry.WorkloadSpec` registrations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..config import BENCH_WARMUP, SMALL_SIZES, WorkloadSizes
from ..errors import ExperimentError
from .stats import summarize_times


@dataclass
class TimedRun:
    """One functional measurement.

    ``seconds`` stays the best-of-repeats figure (the paper's
    convention, and what every existing consumer reads); ``median`` and
    ``spread`` (max − min) record run stability so exported BENCH JSON
    can distinguish a quiet measurement from a noisy one.
    """

    label: str
    seconds: float
    items: int
    median: float = 0.0
    spread: float = 0.0

    @property
    def rate(self) -> float:
        return self.items / self.seconds if self.seconds > 0 else float("inf")


def time_run(label: str, fn, items: int, repeats: int = 3,
             warmup: int = BENCH_WARMUP) -> TimedRun:
    """Best-of-``repeats`` wall-clock timing of ``fn()``, with median
    and spread recorded alongside.

    ``warmup`` extra runs execute untimed first, so one-off costs —
    allocator growth, lazy imports, thread/process pool start — land in
    no reported figure (they used to skew the *median* even when the
    best-of shrugged them off).
    """
    if repeats < 1:
        raise ExperimentError("repeats must be >= 1")
    if warmup < 0:
        raise ExperimentError("warmup must be >= 0")
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    best, median, spread = summarize_times(times)
    return TimedRun(label=label, seconds=best, items=items,
                    median=median, spread=spread)


def time_plan(impl, payload, executor, items: int,
              repeats: int = 3) -> tuple:
    """Compile ``impl`` once on ``executor`` and time ``plan.run`` —
    the served path, and what perfbench's ``kernels.ninja_gap.*`` and
    ``parallel.*`` figures mean.  A loop over ``impl.fn`` would time a
    one-shot per repeat instead: compile, stage and (on the daemon) pin
    and unpin every call.  Returns ``(TimedRun, result)``; the result
    is the plan's output buffer, still valid after the plan is closed.
    """
    from ..plan import compile_plan

    with compile_plan(impl.kernel, impl.tier, payload,
                      backend=impl.backend, executor=executor) as plan:
        out = plan.run()
        run = time_run(impl.label, plan.run, items, repeats)
    return run, out


# ----------------------------------------------------------------------
# Serial-vs-slab speedup (the parallel-tier trajectory)
# ----------------------------------------------------------------------

def measure_pool_crossover(backend: str = "thread", n_workers: int = 2,
                           repeats: int = 5, seed: int = 2012) -> dict:
    """Measure where pooled slab dispatch earns back its submission
    overhead — the data behind :data:`~repro.parallel.slab
    .MEASURED_CROSSOVER_BYTES`.

    Each registered parallel kernel is compiled at several workload
    scales twice: once pooled, once forced in-caller
    (``min_parallel_bytes`` maxed out).  Both plans run the identical
    slab plan, so the ratio isolates pure dispatch overhead.  The
    recommended threshold is the smallest measured working set whose
    pooled/inline ratio stays within 5% — every smaller configuration
    ran faster inline.
    """
    import dataclasses

    from .. import registry
    from ..parallel import SlabExecutor

    scales = {
        "black_scholes": ("black_scholes_nopt", (512, 2048, 8192, 20000)),
        "binomial": ("binomial_nopt", (8, 32, 128)),
        "brownian": ("brownian_paths", (256, 1024, 4096)),
        "rng": ("rng_numbers", (4096, 32768, 262144)),
    }
    rows = []
    for kernel, (field, vals) in scales.items():
        if kernel not in registry.parallel_kernels():
            continue
        spec = registry.workload(kernel)
        impl = registry.impl(kernel, "parallel", backend)
        for v in vals:
            sz = dataclasses.replace(SMALL_SIZES, **{field: v})
            payload = spec.build(sz, seed=seed)
            with SlabExecutor(backend, n_workers=n_workers) as pooled, \
                    SlabExecutor(backend, n_workers=n_workers,
                                 min_parallel_bytes=1 << 62) as inline:
                t_inline, _ = time_plan(impl, payload, inline, v, repeats)
                t_pooled, _ = time_plan(impl, payload, pooled, v, repeats)
            rows.append({
                "kernel": kernel, "n": v,
                "inline_s": t_inline.seconds,
                "pooled_s": t_pooled.seconds,
                "ratio": (t_pooled.seconds / t_inline.seconds
                          if t_inline.seconds > 0 else float("inf")),
            })
    return {"backend": backend, "n_workers": n_workers,
            "repeats": repeats, "rows": rows}


def measure_parallel_speedup(sizes: WorkloadSizes = SMALL_SIZES,
                             backend: str = "thread",
                             n_workers: int | None = None,
                             slab_bytes: int | None = None,
                             repeats: int = 3, seed: int = 2012,
                             min_parallel_bytes: int | None = None,
                             crossover: bool = False) -> dict:
    """Wall-clock serial-vs-slab comparison for every kernel whose
    parallel tier is registered with a pooled backend (``thread`` or
    ``process``); the data behind ``BENCH_parallel.json``.

    Per kernel: the registered serial baseline tier (the kernel's
    ``WorkloadSpec.baseline_tier``, its fastest pre-existing serial
    tier) versus the slab engine on the requested backend.  The fused
    kernel is also timed on the *serial* backend, isolating the
    low-temporary fusion gain from the threading gain (the paper's
    stacked-bar attribution style); ``fused_vs_serial`` reports that
    ratio.

    ``min_parallel_bytes`` (default the measured
    :data:`~repro.parallel.slab.MEASURED_CROSSOVER_BYTES`) applies the
    pool-crossover fallback to the slab executor: sub-threshold
    workloads run their slab plan in-caller, and each kernel record's
    ``inline`` flag reports whether its timed dispatch actually did
    (detected by whether the runs ever started the pool).

    ``crossover`` also runs :func:`measure_pool_crossover` on the same
    backend (``thread`` when the backend is ``serial``) and records its
    table under the ``crossover`` key.
    """
    from .. import registry
    from ..parallel import MEASURED_CROSSOVER_BYTES, SlabExecutor
    from .record import kernel_record

    if min_parallel_bytes is None:
        min_parallel_bytes = MEASURED_CROSSOVER_BYTES
    serial_ex = SlabExecutor("serial", n_workers=n_workers,
                             slab_bytes=slab_bytes)
    kernels = []
    pool_workers = None
    with serial_ex:
        for kernel in registry.parallel_kernels():
            spec = registry.workload(kernel)
            if spec.baseline_tier is None:
                continue
            payload = spec.build(sizes, seed=seed)
            items = spec.items(payload)
            baseline = registry.impl(kernel, spec.baseline_tier, "serial")
            tier = registry.parallel_tier(kernel)
            fused = registry.impl(kernel, tier, "serial")
            slab = registry.impl(kernel, tier, backend)
            # One slab executor per kernel: its pool starts lazily on
            # the first pooled dispatch, so whether it exists after the
            # timed runs records this kernel's crossover decision.
            slab_ex = SlabExecutor(backend, n_workers=n_workers,
                                   slab_bytes=slab_bytes,
                                   min_parallel_bytes=min_parallel_bytes)
            with slab_ex:
                pool_workers = slab_ex.n_workers
                runs = {
                    name: time_plan(impl, payload, ex, items, repeats)[0]
                    for name, impl, ex in (
                        ("serial", baseline, serial_ex),
                        ("fused_serial", fused, serial_ex),
                        ("slab", slab, slab_ex))}
                inline = backend != "serial" and slab_ex._pool is None
            record = kernel_record(
                kernel, items, runs,
                ratios={"speedup": ("serial", "slab"),
                        "fused_vs_serial": ("serial", "fused_serial")})
            record["inline"] = inline
            # Worker count actually used per timed run: serial runs are
            # single-worker by construction, the slab run uses the pool
            # unless the crossover fallback kept it in-caller.
            record["n_workers"] = {
                "serial": 1,
                "fused_serial": 1,
                "slab": 1 if backend == "serial" or inline
                else pool_workers,
            }
            kernels.append(record)
        data = {
            "backend": backend,
            "n_workers": pool_workers or 1,
            "slab_bytes": serial_ex.slab_bytes,
            "min_parallel_bytes": min_parallel_bytes,
            "repeats": repeats,
            "seed": seed,
            "kernels": kernels,
        }
    if crossover:
        data["crossover"] = measure_pool_crossover(
            backend=backend if backend != "serial" else "thread",
            repeats=repeats, seed=seed)
    return data


def parallel_speedup_result(data: dict):
    """Render :func:`measure_parallel_speedup` output as an
    :class:`~repro.bench.experiments.ExperimentResult` so the standard
    text/JSON/CSV reporters apply."""
    from .experiments import ExperimentResult
    rows = []
    for k in data["kernels"]:
        rows.append((
            k["kernel"], k["items"],
            round(k["serial_s"] * 1e3, 3), round(k["slab_s"] * 1e3, 3),
            round(k["speedup"], 2),
            round(k.get("fused_vs_serial", 0.0), 2),
            round(k.get("slab_spread_s", 0.0) * 1e3, 3),
            "inline" if k.get("inline") else "pooled",
        ))
    return ExperimentResult(
        exp_id="parallel",
        title="Serial vs slab-parallel functional speedup (host)",
        headers=("kernel", "items", "serial ms", "slab ms", "speedup",
                 "fused vs serial", "slab spread ms", "dispatch"),
        rows=rows,
        notes=[
            f"backend={data['backend']} workers={data['n_workers']} "
            f"slab_bytes={data['slab_bytes']} repeats={data['repeats']} "
            f"min_parallel_bytes={data.get('min_parallel_bytes', 0)}",
            "serial = registered baseline tier; slab = SlabExecutor "
            "zero-copy views + fused kernels; fused vs serial = fused "
            "kernel on the serial backend (fusion gain alone); dispatch "
            "= inline when the working set sat under the measured "
            "pool-crossover threshold",
        ],
    )

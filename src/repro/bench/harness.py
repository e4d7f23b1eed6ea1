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

from ..config import BENCH_WARMUP, SMALL_SIZES
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


def timing_fields(prefix: str, run: TimedRun) -> dict:
    """Flatten one :class:`TimedRun` into ``{prefix}_s`` /
    ``{prefix}_median_s`` / ``{prefix}_spread_s`` JSON fields — the one
    vocabulary the measured studies' records share."""
    return {
        f"{prefix}_s": run.seconds,
        f"{prefix}_median_s": run.median,
        f"{prefix}_spread_s": run.spread,
    }


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
# Pool crossover (``python -m repro scaling --crossover``)
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

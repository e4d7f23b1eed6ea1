"""Functional-tier registrations for the RNG kernel.

Table II rows 3–4 treatment: the scalar mt19937ar transliteration as
the reference tier versus the block-vectorized :class:`repro.rng.MT19937`
as the optimized tier, plus the jump-ahead slab-parallel tier.  All
three are bit-identical stream-for-stream (tolerance 0.0), so the
measured gap between them isolates exactly the vectorization and
threading wins.  The kernel has no modeled reference tier, so it is
excluded from the modeled Ninja-gap average.
"""

from __future__ import annotations

from ...registry import WorkloadSpec, register_impl, register_workload
from ...rng.mt19937 import MT19937
from ..base import OptLevel
from .functional import ScalarMT19937
from .greeks import (PATHWISE_OUTPUTS, compile_pathwise_parallel,
                     pathwise_parallel)
from .parallel import compile_uniform53_parallel, uniform53_parallel


def build_workload(sizes, seed: int = 5489) -> dict:
    """``rng_numbers`` uniform doubles from a fixed seed."""
    return {"n": sizes.rng_numbers, "seed": seed}


register_workload(WorkloadSpec(
    kernel="rng",
    build=build_workload,
    items=lambda p: p["n"],
    unit=" Gnums/s",
    scale=1e-9,
    tolerance=0.0,
    modeled_gap=False,
    baseline_tier="vectorized",
    greeks_tier="greeks",
))
register_impl("rng", "reference", OptLevel.REFERENCE,
              lambda p, ex: ScalarMT19937(p["seed"]).uniform53(p["n"]))
register_impl("rng", "vectorized", OptLevel.ADVANCED,
              lambda p, ex: MT19937(p["seed"]).uniform53(p["n"]))
def _plan_parallel(payload, executor, arena):
    """Planner: one walk of the stream at compile time leaves a
    624-word state snapshot per slab lane in the arena; warm runs
    restore them into a ``(lanes, 624)`` state and tabulate
    allocation-free."""
    return compile_uniform53_parallel(payload["n"], payload["seed"],
                                      executor, arena)


register_impl("rng", "parallel", OptLevel.PARALLEL,
              lambda p, ex: uniform53_parallel(p["n"], p["seed"], ex),
              backends=("serial", "thread", "process", "daemon"),
              planner=_plan_parallel)


def _plan_greeks(payload, executor, arena):
    return compile_pathwise_parallel(payload["n"], payload["seed"],
                                     executor, arena)


# Risk tier: each item is a GBM path whose two uniforms feed Box-Muller
# and pathwise delta/vega estimators — generation fused straight into
# sensitivities.  Per-path contributions have no uniform-stream
# counterpart; digests are audited across backends instead.
register_impl("rng", "greeks", OptLevel.PARALLEL,
              lambda p, ex: pathwise_parallel(p["n"], p["seed"], ex),
              backends=("serial", "thread", "process", "daemon"),
              checked=False,
              outputs=PATHWISE_OUTPUTS,
              planner=_plan_greeks)

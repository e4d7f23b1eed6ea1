"""Functional-tier registrations for the binomial-tree kernel.

The Fig. 5 ladder: scalar reference, unrolled basic, SIMD-across-options
intermediate, register-tiled advanced (the lane-accurate model of
Listing 3), and the slab-parallel tier's node-major options × nodes
sweep.  All tiers price the same European option group at the shared
step count, so root prices are comparable to 1e-10.
"""

from __future__ import annotations

import numpy as np

from ...plan import one_shot
from ...pricing.bump import BUMP_OUTPUTS, compile_bumped
from ...pricing.options import Option
from ...registry import WorkloadSpec, register_impl, register_workload
from ..levels import OptLevel
from .basic import price_basic_batch
from .parallel import compile_price_tiled, price_tiled_parallel
from .reference import price_reference_batch
from .simd_across import price_simd_across
from .tiled import price_tiled


def build_workload(sizes, seed: int = 2012) -> dict:
    """The Fig. 5 option group (shared step count)."""
    rng = np.random.default_rng(seed)
    options = [
        Option(spot=100.0, strike=float(s), expiry=1.0, rate=0.02, vol=0.3)
        for s in rng.uniform(80.0, 120.0, sizes.binomial_nopt)
    ]
    return {"options": options, "steps": sizes.binomial_steps[0]}


register_workload(WorkloadSpec(
    kernel="binomial",
    build=build_workload,
    items=lambda p: len(p["options"]),
    unit=" Kopts/s",
    scale=1e-3,
    tolerance=1e-10,
    greeks_tier="greeks",
))
register_impl("binomial", "reference", OptLevel.REFERENCE,
              lambda p, ex: price_reference_batch(p["options"], p["steps"]))
register_impl("binomial", "basic", OptLevel.BASIC,
              lambda p, ex: price_basic_batch(p["options"], p["steps"]))
register_impl("binomial", "simd_across", OptLevel.INTERMEDIATE,
              lambda p, ex: price_simd_across(p["options"], p["steps"]))
register_impl("binomial", "tiled", OptLevel.ADVANCED,
              lambda p, ex: price_tiled(p["options"], p["steps"]))
def _plan_parallel(payload, executor, arena):
    """Planner: transposed leaves, CRR coefficients and the node-major
    sweep workspace of every slab are hoisted out of the hot path."""
    return compile_price_tiled(payload["options"], payload["steps"],
                               executor, arena)


register_impl("binomial", "parallel", OptLevel.PARALLEL,
              lambda p, ex: price_tiled_parallel(p["options"], p["steps"],
                                                 ex),
              backends=("serial", "thread", "process", "daemon"),
              planner=_plan_parallel)


def _plan_greeks(payload, executor, arena):
    return compile_bumped(compile_price_tiled, payload["options"],
                          (payload["steps"],), executor, arena)


# Risk tier: bump-and-revalue Greeks over the 5x-expanded scenario
# group.  The base scenario's lane is the parallel tier's sweep, so the
# "price" output stays checked against the reference ladder.
register_impl("binomial", "greeks", OptLevel.PARALLEL,
              lambda p, ex: one_shot(compile_bumped, compile_price_tiled,
                                     p["options"], (p["steps"],),
                                     executor=ex),
              backends=("serial", "thread", "process", "daemon"),
              outputs=BUMP_OUTPUTS,
              planner=_plan_greeks)

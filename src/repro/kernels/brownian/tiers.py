"""Functional-tier registrations for the Brownian-bridge kernel.

The Fig. 6 ladder: scalar reference, SIMD-across-paths vectorized tier,
interleaved (block-at-a-time RNG consumption), and the slab-parallel
tier over paths.  The shared workload pre-generates one normal stream;
the interleaved tier consumes it through an array-backed source in the
same path-major order, so all four tiers are bit-comparable.
"""

from __future__ import annotations

import numpy as np

from ...registry import WorkloadSpec, register_impl, register_workload
from ...rng import MT19937, NormalGenerator
from ..base import OptLevel
from .bridge import make_schedule
from .interleaved import build_interleaved, default_block_paths
from .parallel import build_parallel, compile_build_parallel
from .reference import build_reference
from .risk import (RISK_OUTPUTS, barrier_risk_parallel,
                   compile_barrier_risk)
from .vectorized import build_vectorized


def build_workload(sizes, seed: int = 2012) -> dict:
    """The Fig. 6 bridge workload: schedule + pre-generated normals."""
    depth = max(1, int(sizes.brownian_steps).bit_length() - 1)
    schedule = make_schedule(depth)
    gen = NormalGenerator(MT19937(seed))
    randoms = gen.normals(sizes.brownian_paths * schedule.randoms_per_path())
    return {"schedule": schedule, "randoms": randoms,
            "n_paths": sizes.brownian_paths}


class _ArraySource:
    """Serves consecutive path-major slices of a pre-generated stream,
    so the interleaved tier consumes the same draws as the other tiers."""

    def __init__(self, randoms: np.ndarray):
        self._randoms = randoms
        self._cursor = 0

    def __call__(self, n: int) -> np.ndarray:
        z = self._randoms[self._cursor:self._cursor + n]
        self._cursor += n
        return z


def _run_interleaved(payload, executor):
    schedule = payload["schedule"]
    block = default_block_paths(schedule, 1 << 20)   # 1 MiB hot block
    return build_interleaved(schedule, _ArraySource(payload["randoms"]),
                             payload["n_paths"], block).ravel()


register_workload(WorkloadSpec(
    kernel="brownian",
    build=build_workload,
    items=lambda p: p["n_paths"],
    unit=" Mpaths/s",
    scale=1e-6,
    tolerance=1e-10,
    baseline_tier="vectorized",
    greeks_tier="greeks",
))
register_impl("brownian", "reference", OptLevel.REFERENCE,
              lambda p, ex: build_reference(p["schedule"],
                                            p["randoms"]).ravel())
register_impl("brownian", "vectorized", OptLevel.INTERMEDIATE,
              lambda p, ex: build_vectorized(p["schedule"],
                                             p["randoms"]).ravel())
register_impl("brownian", "interleaved", OptLevel.ADVANCED,
              _run_interleaved)
def _plan_parallel(payload, executor, arena):
    """Planner: each slab's block workspace and the output are
    arena-owned; runs rebuild bridges from the rebound randoms."""
    return compile_build_parallel(payload["schedule"],
                                  payload["randoms"], executor, arena)


register_impl("brownian", "parallel", OptLevel.PARALLEL,
              lambda p, ex: build_parallel(p["schedule"], p["randoms"],
                                           ex).ravel(),
              backends=("serial", "thread", "process", "daemon"),
              planner=_plan_parallel)


def _plan_greeks(payload, executor, arena):
    return compile_barrier_risk(payload["schedule"], payload["randoms"],
                                executor, arena)


# Risk tier: down-and-out barrier delta/vega on the bridged paths —
# the bridge is vol-independent, so every bumped scenario replays the
# same paths (CRN by construction).  Per-path contributions have no
# reference-ladder counterpart; digests are audited across backends.
register_impl("brownian", "greeks", OptLevel.PARALLEL,
              lambda p, ex: barrier_risk_parallel(p["schedule"],
                                                  p["randoms"], ex),
              backends=("serial", "thread", "process", "daemon"),
              checked=False,
              outputs=RISK_OUTPUTS,
              planner=_plan_greeks)

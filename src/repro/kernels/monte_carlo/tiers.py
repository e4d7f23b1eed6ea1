"""Functional-tier registrations for the Monte-Carlo kernel.

Table II row 1 (STREAM mode): scalar reference path loop, the
vectorized tier (also the paper's peak — Sec. IV-D2 needs only basic
optimizations), and the slab-parallel tier.  Every tier reuses one
shared pre-generated normal stream, so prices and standard errors are
comparable to 1e-10.  The slab tiers (``parallel`` and ``greeks``) price
each option's in-the-money tail of a sorted copy of that stream: within
``tolerance`` of the reference; bit-identical across backends.
"""

from __future__ import annotations

import numpy as np

from ...registry import WorkloadSpec, register_impl, register_workload
from ...rng import MT19937, NormalGenerator
from ..base import OptLevel
from .bump import (BUMP_OUTPUTS, compile_greeks_stream,
                   greeks_stream_parallel)
from .parallel import compile_price_stream, price_stream_parallel
from .reference import price_reference
from .vectorized import price_stream

#: Rate/vol shared by the Table II Monte-Carlo workload.
MC_RATE, MC_VOL = 0.02, 0.3


def build_workload(sizes, seed: int = 2012) -> dict:
    """(S, X, T, randoms) for the Table II STREAM pricing workload."""
    rng = np.random.default_rng(seed)
    n = sizes.mc_nopt
    return {
        "S": rng.uniform(80.0, 120.0, n),
        "X": rng.uniform(80.0, 120.0, n),
        "T": rng.uniform(0.25, 2.0, n),
        "rate": MC_RATE,
        "vol": MC_VOL,
        "randoms": NormalGenerator(MT19937(seed)).normals(
            sizes.mc_path_length),
    }


def _extract(result) -> np.ndarray:
    return np.concatenate([result.price, result.stderr])


register_workload(WorkloadSpec(
    kernel="monte_carlo",
    build=build_workload,
    items=lambda p: p["S"].shape[0],
    unit=" Kopts/s",
    scale=1e-3,
    tolerance=1e-10,
    greeks_tier="greeks",
))
register_impl("monte_carlo", "reference", OptLevel.REFERENCE,
              lambda p, ex: _extract(price_reference(
                  p["S"], p["X"], p["T"], p["rate"], p["vol"],
                  p["randoms"])))
register_impl("monte_carlo", "vectorized", OptLevel.BASIC,
              lambda p, ex: _extract(price_stream(
                  p["S"], p["X"], p["T"], p["rate"], p["vol"],
                  p["randoms"])))
def _plan_parallel(payload, executor, arena):
    """Planner: prices and standard errors land in the arena's
    ``[price | stderr]`` vector; scratch blocks are per slab."""
    return compile_price_stream(
        payload["S"], payload["X"], payload["T"], payload["rate"],
        payload["vol"], payload["randoms"], executor, arena)


register_impl("monte_carlo", "parallel", OptLevel.PARALLEL,
              lambda p, ex: _extract(price_stream_parallel(
                  p["S"], p["X"], p["T"], p["rate"], p["vol"],
                  p["randoms"], ex)),
              backends=("serial", "thread", "process", "daemon"),
              planner=_plan_parallel)


def _run_greeks(payload, executor):
    return greeks_stream_parallel(
        payload["S"], payload["X"], payload["T"], payload["rate"],
        payload["vol"], payload["randoms"], executor)


def _plan_greeks(payload, executor, arena):
    return compile_greeks_stream(
        payload["S"], payload["X"], payload["T"], payload["rate"],
        payload["vol"], payload["randoms"], executor, arena)


# Risk tier: bump-and-revalue Greeks with common random numbers.  Its
# "price" output is the base scenario — the same tail body as the
# parallel tier — so it stays checked against the reference ladder on
# the shared ``price`` output.
register_impl("monte_carlo", "greeks", OptLevel.PARALLEL,
              _run_greeks,
              backends=("serial", "thread", "process", "daemon"),
              outputs=BUMP_OUTPUTS,
              planner=_plan_greeks)

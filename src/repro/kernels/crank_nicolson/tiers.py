"""Functional-tier registrations for the Crank-Nicolson/PSOR kernel.

The Fig. 8 ladder maps to the pluggable implicit solvers: scalar GSOR
(reference), red-black GSOR (basic), wavefront (intermediate),
transformed wavefront (advanced), and the new slab tier over contracts.
All solve the same group of American puts.  Each solver is a different
iteration to the same fixed point, so tiers agree with the reference
only to the convergence tolerance accumulated over the time-step march
(~1e-5 at test sizes) — hence the loose workload tolerance.
"""

from __future__ import annotations

import numpy as np

from ...plan import one_shot
from ...pricing.bump import BUMP_OUTPUTS, compile_bumped
from ...pricing.options import ExerciseStyle, Option, OptionKind
from ...registry import WorkloadSpec, register_impl, register_workload
from ..levels import OptLevel
from .parallel import compile_solve_batch, solve_batch_parallel
from .solver import solve_batch


def build_workload(sizes, seed: int = 2012) -> dict:
    """The Fig. 8 lattice workload: American puts on one grid."""
    rng = np.random.default_rng(seed)
    options = [
        Option(spot=100.0, strike=float(s), expiry=1.0, rate=0.05, vol=0.3,
               kind=OptionKind.PUT, style=ExerciseStyle.AMERICAN)
        for s in rng.uniform(90.0, 110.0, sizes.cn_nopt)
    ]
    return {"options": options, "n_points": sizes.cn_prices,
            "n_steps": sizes.cn_steps}


def _solver_fn(solver: str):
    return lambda p, ex: solve_batch(p["options"], p["n_points"],
                                     p["n_steps"], solver)


register_workload(WorkloadSpec(
    kernel="crank_nicolson",
    build=build_workload,
    items=lambda p: len(p["options"]),
    unit=" Kopts/s",
    scale=1e-3,
    tolerance=1e-3,
    greeks_tier="greeks",
))
register_impl("crank_nicolson", "gsor", OptLevel.REFERENCE,
              _solver_fn("gsor"))
register_impl("crank_nicolson", "red_black", OptLevel.BASIC,
              _solver_fn("red_black"))
register_impl("crank_nicolson", "wavefront", OptLevel.INTERMEDIATE,
              _solver_fn("wavefront"))
register_impl("crank_nicolson", "wavefront_transformed", OptLevel.ADVANCED,
              _solver_fn("wavefront_transformed"))
def _plan_parallel(payload, executor, arena):
    """Planner: per-contract grids, payoff profiles, boundary sequences
    and interp stencils are hoisted to compile time into one
    lane-batched march workspace per slab (see :mod:`.planned`)."""
    return compile_solve_batch(payload["options"], payload["n_points"],
                               payload["n_steps"], executor, arena)


register_impl("crank_nicolson", "parallel", OptLevel.PARALLEL,
              lambda p, ex: solve_batch_parallel(
                  p["options"], p["n_points"], p["n_steps"], executor=ex),
              backends=("serial", "thread", "process", "daemon"),
              planner=_plan_parallel)


def _plan_greeks(payload, executor, arena):
    return compile_bumped(compile_solve_batch, payload["options"],
                          (payload["n_points"], payload["n_steps"]),
                          executor, arena)


# Risk tier: American bump-and-revalue Greeks over the 5x-expanded
# scenario group.  The base scenario's lane runs the parallel tier's
# red-black iterates, so the "price" output stays checked against the
# reference solver at the workload tolerance.
register_impl("crank_nicolson", "greeks", OptLevel.PARALLEL,
              lambda p, ex: one_shot(
                  compile_bumped, compile_solve_batch, p["options"],
                  (p["n_points"], p["n_steps"]), executor=ex),
              backends=("serial", "thread", "process", "daemon"),
              outputs=BUMP_OUTPUTS,
              planner=_plan_greeks)

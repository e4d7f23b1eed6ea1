"""Crank-Nicolson bump-and-revalue Greeks over contract slabs.

American-exercise Greeks have no closed form, so the risk tier
revalues every contract under the five
:data:`~repro.pricing.bump.SCENARIOS` and central-differences the
results — the standard practice for early-exercise sensitivities.  The
expanded ``5n`` contract group goes through the same slab dispatch as
the price-only parallel tier (scenario cells are lanes of the same slab
march, each independent of its neighbours), and the combine is the
shared ``out=``-only arithmetic of :mod:`repro.pricing.bump`.  The base
scenario's lane runs the parallel tier's iterates, so the tier's
``price`` output matches the parallel tier bit for bit and stays
checked against the reference solver at the workload tolerance.
"""

from __future__ import annotations

import numpy as np

from ...parallel.slab import SlabExecutor
from ...plan import one_shot
from ...pricing.bump import (BUMP_REL, bump_denominators, combine_central,
                             expand_bumped)
from ...results import ResultSlab
from .parallel import compile_solve_batch


def _result_slab(backing: np.ndarray, n: int) -> ResultSlab:
    """Logical view of one ``4n`` backing vector, one ``n`` span per
    output."""
    return ResultSlab(
        {"price": backing[:n], "delta": backing[n:2 * n],
         "gamma": backing[2 * n:3 * n], "vega": backing[3 * n:]},
        backing=backing)


def greeks_batch_parallel(options, n_points: int = 256,
                          n_steps: int = 1000,
                          solver: str = "red_black",
                          executor: SlabExecutor | None = None,
                          h: float = BUMP_REL) -> ResultSlab:
    """Bump Greeks for a contract group on the implicit lattice: the
    one-shot of :func:`compile_greeks_batch`.

    Returns a :class:`~repro.results.ResultSlab` with ``price``,
    ``delta``, ``gamma`` and ``vega`` (one value per contract).
    Bit-identical across backends: every scenario march is
    deterministic and the combine runs in the parent in a fixed order.
    """
    return one_shot(compile_greeks_batch, options, n_points, n_steps,
                    executor=executor, solver=solver, h=h)


def compile_greeks_batch(options, n_points: int, n_steps: int,
                         executor: SlabExecutor, arena,
                         solver: str = "red_black",
                         h: float = BUMP_REL):
    """Plan-compile the bump-Greeks tier: the expanded scenario group is
    compiled once through :func:`~.parallel.compile_solve_batch` (which
    hoists grids, payoff profiles, boundary sequences and per-slab
    march workspaces into the same arena); the denominators and the
    ``4n`` result backing are arena-resident, so warm runs are the slab
    marches plus the in-place combine with zero hot-path allocations."""
    options = list(options)
    n = len(options)
    run_grid = compile_solve_batch(expand_bumped(options, h), n_points,
                                   n_steps, executor, arena, solver)
    denoms = bump_denominators(options, h,
                               out=arena.reserve("denoms", (3, n)))
    backing = arena.reserve("greeks", 4 * n)
    slab = _result_slab(backing, n)
    price, delta = slab["price"], slab["delta"]
    gamma, vega = slab["gamma"], slab["vega"]

    def run() -> ResultSlab:
        grid = run_grid()
        combine_central(grid, denoms, price, delta, gamma, vega)
        return slab

    return run

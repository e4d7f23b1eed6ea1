"""Binomial bump-and-revalue Greeks over option slabs.

The lattice has no analytic Greeks, so the risk tier revalues every
contract under the five :data:`~repro.pricing.bump.SCENARIOS` and
central-differences the results.  The expanded ``5n`` option group goes
through the *same* slab dispatch as the price-only parallel tier —
scenario cells are lanes of the same node-major sweep — and the combine
is the shared ``out=``-only arithmetic of :mod:`repro.pricing.bump`.
The base scenario's lane computes the parallel tier's reduction tree,
so the tier's ``price`` output is bit-identical to the parallel tier
and stays checked against the reference ladder.
"""

from __future__ import annotations

import numpy as np

from ...parallel.slab import SlabExecutor
from ...plan import one_shot
from ...pricing.bump import (BUMP_REL, bump_denominators, combine_central,
                             expand_bumped)
from ...results import ResultSlab
from .parallel import compile_price_tiled


def _result_slab(backing: np.ndarray, n: int) -> ResultSlab:
    """Logical view of one ``4n`` backing vector, one ``n`` span per
    output."""
    return ResultSlab(
        {"price": backing[:n], "delta": backing[n:2 * n],
         "gamma": backing[2 * n:3 * n], "vega": backing[3 * n:]},
        backing=backing)


def greeks_tiled_parallel(options, n_steps: int,
                          executor: SlabExecutor | None = None,
                          h: float = BUMP_REL) -> ResultSlab:
    """Bump Greeks for a European option group on the binomial lattice:
    the one-shot of :func:`compile_greeks_tiled`.

    Returns a :class:`~repro.results.ResultSlab` with ``price``,
    ``delta``, ``gamma`` and ``vega`` (one value per option).
    Bit-identical across backends: the lattice is deterministic and the
    combine runs in the parent in a fixed order.
    """
    return one_shot(compile_greeks_tiled, options, n_steps,
                    executor=executor, h=h)


def compile_greeks_tiled(options, n_steps: int, executor: SlabExecutor,
                         arena, h: float = BUMP_REL):
    """Plan-compile the bump-Greeks tier: the expanded scenario group is
    compiled once through :func:`~.parallel.compile_price_tiled` (which
    hoists leaves, CRR coefficients and the sweep workspaces into the
    same arena), and the denominators and the ``4n`` result backing
    are arena-resident — warm runs are the lattice sweep plus the
    in-place combine, with zero hot-path allocations."""
    options = list(options)
    n = len(options)
    run_grid = compile_price_tiled(expand_bumped(options, h), n_steps,
                                   executor, arena)
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

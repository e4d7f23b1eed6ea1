"""Bump-and-revalue Greeks for the lattice risk tiers.

The binomial and Crank-Nicolson kernels have no cheap analytic Greeks:
their risk tiers revalue each contract under five scenarios — base,
spot bumped ``±h·S``, vol bumped ``±h·σ`` — and take central
differences.  This module owns the one compiler both tiers register,
:func:`compile_bumped`, and the scenario bookkeeping it runs on:
expanding an option group into the scenario-major ``5n`` list the
kernel's own price compiler turns into one slab dispatch, the
per-option difference denominators, and the deterministic
``out=``-only combine that turns the priced grid into
``price``/``delta``/``gamma``/``vega`` vectors (allocation-free, so the
planned warm path stays clean under the allocation audit).

Lattice revaluations are deterministic, so unlike the Monte-Carlo bump
tier there is no common-random-number story here — the differences are
exact up to the scheme's own convergence error and the O(h²)
truncation.  Scenario cells are lanes of the price tier's sweep, so
the base scenario's lane computes the price tier's own arithmetic and
the ``price`` output matches it bit for bit.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..config import DTYPE
from ..errors import ConfigurationError
from ..results import ResultSlab

#: Relative bump for the central differences, shared by every
#: bump-and-revalue tier: scenarios revalue at ``S·(1±h)``/``σ·(1±h)``.
BUMP_REL = 1e-2

#: Scenario order of the expanded option list (and the priced grid).
SCENARIOS = ("base", "up_s", "dn_s", "up_v", "dn_v")

#: Logical outputs of every lattice bump tier.
BUMP_OUTPUTS = ("price", "delta", "gamma", "vega")


def check_bump(h: float) -> None:
    if not 0.0 < h < 1.0:
        raise ConfigurationError("relative bump h must be in (0, 1)")


def expand_bumped(options, h: float) -> list:
    """The scenario-major ``5n`` option list: all base contracts, then
    all spot-up, spot-down, vol-up, vol-down variants.  Scenario-major
    order keeps each scenario a contiguous ``n`` span of the priced
    grid, so the combine is pure vector arithmetic."""
    check_bump(h)
    options = list(options)
    expanded = list(options)
    expanded += [replace(o, spot=o.spot * (1.0 + h)) for o in options]
    expanded += [replace(o, spot=o.spot * (1.0 - h)) for o in options]
    expanded += [replace(o, vol=o.vol * (1.0 + h)) for o in options]
    expanded += [replace(o, vol=o.vol * (1.0 - h)) for o in options]
    return expanded


def bump_denominators(options, h: float, out=None) -> np.ndarray:
    """Per-option central-difference denominators as a ``(3, n)`` block
    (rows: ``2hS``, ``(hS)²``, ``2hσ``), written into ``out`` when given
    (the planned path's arena buffer)."""
    options = list(options)
    n = len(options)
    if out is None:
        out = np.empty((3, n), dtype=DTYPE)
    spot = np.fromiter((o.spot for o in options), dtype=DTYPE, count=n)
    vol = np.fromiter((o.vol for o in options), dtype=DTYPE, count=n)
    np.multiply(spot, 2.0 * h, out=out[0])
    np.multiply(spot, h, out=out[1])
    out[1] *= out[1]
    np.multiply(vol, 2.0 * h, out=out[2])
    return out


def combine_central(grid: np.ndarray, denoms: np.ndarray, price, delta,
                    gamma, vega) -> None:
    """Turn the scenario-major ``5n`` grid into price and Greeks, in
    place (``out=`` arithmetic only — no hot-path allocations)."""
    n = price.shape[0]
    base = grid[:n]
    up_s, dn_s = grid[n:2 * n], grid[2 * n:3 * n]
    up_v, dn_v = grid[3 * n:4 * n], grid[4 * n:]
    np.copyto(price, base)
    np.subtract(up_s, dn_s, out=delta)
    delta /= denoms[0]
    np.add(up_s, dn_s, out=gamma)
    gamma -= base
    gamma -= base
    gamma /= denoms[1]
    np.subtract(up_v, dn_v, out=vega)
    vega /= denoms[2]


def compile_bumped(compile_grid, options, grid_args: tuple, executor,
                   arena, h: float = BUMP_REL):
    """Plan-compile a lattice bump-Greeks tier over the price compiler
    ``compile_grid(options, *grid_args, executor, arena)``.

    The expanded scenario group is compiled once through
    ``compile_grid`` (which hoists the kernel's own workspaces into the
    same arena); the denominators and the ``4n`` result backing are
    arena-resident, so warm runs are the slab sweep plus the in-place
    combine with zero hot-path allocations.  The runner returns a
    :class:`~repro.results.ResultSlab` of :data:`BUMP_OUTPUTS`, one
    value per option, bit-identical across backends: the lattice is
    deterministic and the combine runs in the parent in a fixed order.
    """
    options = list(options)
    n = len(options)
    run_grid = compile_grid(expand_bumped(options, h), *grid_args,
                            executor, arena)
    denoms = bump_denominators(options, h,
                               out=arena.reserve("denoms", (3, n)))
    backing = arena.reserve("greeks", 4 * n)
    outs = tuple(backing.reshape(len(BUMP_OUTPUTS), n))
    slab = ResultSlab(dict(zip(BUMP_OUTPUTS, outs)), backing=backing)

    def run() -> ResultSlab:
        combine_central(run_grid(), denoms, *outs)
        return slab

    return run

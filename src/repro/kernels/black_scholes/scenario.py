"""Spot×vol scenario grids priced straight from the batch.

The risk-scenario workload: revalue the whole batch under a grid of
relative spot and volatility shifts (the classic stress matrix).  The
dispatch runs over the ``n`` options and reads S/X/T (and r/σ, in
either operand form) directly, like the price and Greeks tiers; the 25
cells are 25 write vectors, contiguous ``n``-views of one scenario-major
``25n`` result.  The slab body prices the grid by broadcast: √T and
X·e^{−rT} once per option, ln(S_k/X) per spot shift, (r+σ_j²/2)T and
σ_j√T per vol shift, and only d1, d2 and the one N(x) pass over the
adjacent d1/d2 blocks of all 25 cells — each element seeing exactly
:func:`.implied.call_price_sig`'s operation sequence, so prices are
bit-identical to pricing 25 shifted copies.
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...parallel.slab import SlabExecutor
from ...pricing.options import OptionBatch
from ...results import ResultSlab
from ...simd.layout import aos_to_soa
from ...vmath.ndtr import ndtr
from .greeks import _backing_views
from .parallel import ZERO, lane_runner, rate_vol_operands, scratch_rows

#: Relative shifts: every pair of one spot and one vol factor is a
#: scenario cell, ordered spot-major (cell k·|vols|+j = spot k, vol j).
SPOT_SHIFTS = (0.90, 0.95, 1.00, 1.05, 1.10)
VOL_SHIFTS = (0.80, 0.90, 1.00, 1.10, 1.20)
_SPOT = np.array(SPOT_SHIFTS, dtype=DTYPE)[:, None]
_VOL = np.array(VOL_SHIFTS, dtype=DTYPE)[:, None]
_NS, _NV = len(SPOT_SHIFTS), len(VOL_SHIFTS)

#: Write-array names, in backing order: cell ``k·|vols|+j`` is one
#: contiguous ``n`` view of the scenario-major result.
GRID_WRITES = tuple(f"g{c:02d}" for c in range(_NS * _NV))

#: Scratch rows per option: S_k, ln(S_k/X), σ_j√T, (r+σ_j²/2)T, √T,
#: X·e^{−rT}, and the two 25-cell blocks d1/N(d1)/price and
#: d2/N(d2)·disc (the grid is priced and floored there, then copied out).
_SCRATCH_ROWS = 2 * _NS + 2 * _NV + 2 + 2 * _NS * _NV
_D12 = 2 * _NS + 2 * _NV + 2           # first d1 row

#: Doubles per option: S/X/T in, 25 cells out, the scratch rows.
SCENARIO_BYTES_PER_OPTION = 8 * (3 + _NS * _NV + _SCRATCH_ROWS)


def n_scenarios() -> int:
    return _NS * _NV


def _scratch_views(block: np.ndarray) -> tuple:
    """The named views of one ``(_SCRATCH_ROWS, m)`` block, built
    once per slab and prefix cut (per run only out of process)."""
    m = block.shape[1]
    cells = _NS * _NV
    S5, ln5 = block[:_NS], block[_NS:2 * _NS]
    b5, c5 = block[2 * _NS:2 * _NS + _NV], block[2 * _NS + _NV:_D12 - 2]
    sqt, disc, d12 = block[_D12 - 2], block[_D12 - 1], block[_D12:]
    nd1, dnd2 = d12[:cells], d12[cells:]
    return (S5, ln5, b5, c5, sqt, disc, nd1.reshape(_NS, _NV, m),
            dnd2.reshape(_NS, _NV, m), d12, ln5[:, None, :], c5[None],
            b5[None], S5[:, None, :], list(nd1))


def _scenario_slab(S, X, T, r, sig, cols: bool, grid: list,
                   scratch=None) -> None:
    """The 5×5 grid of one slab, written into the 25 vectors of
    ``grid``.  ``r``/``sig`` are floats, or with ``cols`` per-option
    columns; ``scratch`` is :func:`_scratch_views` of an arena block
    (allocated here otherwise)."""
    if scratch is None:
        scratch = _scratch_views(
            np.empty((_SCRATCH_ROWS, S.shape[0]), dtype=DTYPE))
    S5, ln5, b5, c5, sqt, disc, a3, b3, d12, ln5b, c5b, b5b, S5b, cells = \
        scratch
    np.multiply(S, _SPOT, out=S5)          # S5[k] = S·spot_k
    np.divide(S5, X, out=ln5)
    np.log(ln5, out=ln5)                   # ln5[k] = ln(S_k/X)
    np.multiply(_VOL, sig, out=b5)         # b5[j] = σ_j = σ·vol_j
    np.multiply(b5, b5, out=c5)
    c5 *= 0.5
    c5 += r
    c5 *= T                                # c5[j] = (r+σ_j²/2)T
    np.sqrt(T, out=sqt)
    b5 *= sqt                              # b5[j] = σ_j√T
    if cols:
        np.negative(r, out=disc)
        disc *= T
    else:
        np.multiply(T, -r, out=disc)
    np.exp(disc, out=disc)
    disc *= X                              # disc = X·e^{−rT}
    np.add(ln5b, c5b, out=a3)
    a3 /= b5b                              # a3[k,j] = d1
    np.subtract(a3, b5b, out=b3)           # b3[k,j] = d2
    ndtr(d12, out=d12)                     # a3 = N(d1), b3 = N(d2)
    b3 *= disc                             # b3 = X·e^{−rT}·N(d2)
    a3 *= S5b                              # a3 = S_k·N(d1)
    a3 -= b3                               # a3 = C, all 25 cells at once
    np.maximum(a3, ZERO, out=a3)           # rounding never prices < 0
    for g, cell in zip(grid, cells):
        g[:] = cell


def _scenario_slab_task(arrays: dict, consts: dict, a: int, b: int,
                        slab: int) -> None:
    cols = consts["cols"]
    params = arrays if cols else consts
    _scenario_slab(arrays["S"], arrays["X"], arrays["T"],
                   params["r"], params["sig"], cols,
                   [arrays[name] for name in GRID_WRITES],
                   consts.get("scratch"))


def compile_scenario_parallel(batch: OptionBatch, executor: SlabExecutor,
                              arena):
    """Plan-compile the scenario grid for repeated same-shape calls.

    Reserves the ``25n`` result and one scratch block per slab in
    ``arena``.  The dispatch reads the batch arrays directly, so new
    numbers packed into them need nothing re-derived, and warm runs
    allocate nothing (out of process the scratch handoff is skipped).
    ``run(n)`` prices the live prefix ``[0, n)`` only: each cell's
    first ``n`` options.
    """
    soa = batch.batch if batch.layout == "soa" else aos_to_soa(batch.batch)
    S, X, T = soa.get("S"), soa.get("X"), soa.get("T")
    n = S.shape[0]
    grid = arena.reserve("result", n_scenarios() * n)
    views = _backing_views(grid, n, GRID_WRITES)
    per_slab = None
    if not executor.out_of_process:
        scratch = arena.reserve("scratch", _SCRATCH_ROWS * n)

        def per_slab(a, b, i):
            return {"scratch": _scratch_views(
                scratch_rows(scratch, _SCRATCH_ROWS, a, b))}
    columns, params = rate_vol_operands(batch)
    dispatch = arena.adopt(executor.compile_lanes(
        _scenario_slab_task, n,
        bytes_per_item=SCENARIO_BYTES_PER_OPTION,
        sliced={"S": S, "X": X, "T": T, **views, **columns},
        writes=GRID_WRITES,
        outputs={"grid": GRID_WRITES},
        consts=params,
        per_slab=per_slab, prefixes=True, tag="bssc"))
    return lane_runner(dispatch, n, ResultSlab({"grid": grid}, backing=grid))

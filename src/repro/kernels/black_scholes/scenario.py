"""Spot×vol scenario grids priced as one giant slab.

The risk-scenario workload: revalue the whole batch under a grid of
relative spot and volatility shifts (the classic stress matrix).  The
grid is **flattened into one dispatch** — ``n_scenarios · n`` options
priced by the same fused call kernel with a per-element σ vector —
so the slab engine load-balances scenario cells exactly like options
and the result digests as a single vector.  Expansion happens at
dispatch (or plan-compile) time in the parent; the slab body is pure
pricing.
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...errors import ConfigurationError
from ...parallel.slab import SlabExecutor
from ...plan import one_shot
from ...pricing.options import OptionBatch
from ...results import ResultSlab
from ...simd.layout import aos_to_soa
from ...vmath.libs import VectorMathLib, get_lib
from .implied import call_price_sig

#: Relative shifts: every pair of one spot and one vol factor is a
#: scenario cell, ordered spot-major (cell k·|vols|+j = spot k, vol j).
SPOT_SHIFTS = (0.90, 0.95, 1.00, 1.05, 1.10)
VOL_SHIFTS = (0.80, 0.90, 1.00, 1.10, 1.20)

#: Doubles per grid cell: S/X/T/σ in, grid out, 3 scratch.
SCENARIO_BYTES_PER_CELL = 8 * 8


def n_scenarios() -> int:
    return len(SPOT_SHIFTS) * len(VOL_SHIFTS)


def _scenario_slab_task(arrays: dict, consts: dict, a: int, b: int,
                        slab: int) -> None:
    call_price_sig(arrays["S"], arrays["X"], arrays["T"], consts["r"],
                   arrays["sig"], arrays["grid"], consts["lib"],
                   consts.get("scratch"))


def _expand(batch: OptionBatch, out=None):
    """Tile the batch across the shift grid: ``(S, X, T, sig)`` arrays
    of length ``n_scenarios()·n``, written into ``out`` when given (a
    ``(4, cells)`` block, the planned path's arena buffer)."""
    soa = batch.batch if batch.layout == "soa" else aos_to_soa(batch.batch)
    S, X, T = soa.get("S"), soa.get("X"), soa.get("T")
    n = S.shape[0]
    cells = n_scenarios() * n
    if out is None:
        out = np.empty((4, cells), dtype=DTYPE)
    gS, gX, gT, gsig = out
    k = 0
    for s_shift in SPOT_SHIFTS:
        for v_shift in VOL_SHIFTS:
            sl = slice(k * n, (k + 1) * n)
            np.multiply(S, s_shift, out=gS[sl])
            gX[sl] = X
            gT[sl] = T
            gsig[sl] = batch.vol * v_shift
            k += 1
    return gS, gX, gT, gsig


def scenario_parallel(batch: OptionBatch,
                      executor: SlabExecutor | None = None,
                      lib: VectorMathLib | str = "numpy") -> ResultSlab:
    """Price the full spot×vol grid over slabs: the one-shot of
    :func:`compile_scenario_parallel`.

    Returns a single-output :class:`~repro.results.ResultSlab`
    (``grid``, length ``n_scenarios()·n``, scenario-major).
    Bit-identical across backends.
    """
    return one_shot(compile_scenario_parallel, batch, executor=executor,
                    lib=lib)


def compile_scenario_parallel(batch: OptionBatch, executor: SlabExecutor,
                              arena, lib: VectorMathLib | str = "numpy"):
    """Plan-compile the scenario grid: the expanded inputs live in
    arena buffers, built once at compile time; warm runs are pure
    pricing sweeps with zero hot-path allocations.

    Returns ``(run, rebind)``: unlike the price/Greeks planners, whose
    dispatches read the batch arrays directly every run, this tier
    prices a *derived* expansion of the batch, so new numbers must be
    re-tiled into the arena inputs — ``rebind`` copies the new batch in
    and re-expands in place (no allocation).  Without it, a cached plan
    re-run with fresh numbers would silently price the stale grid.
    """
    if isinstance(lib, str):
        lib = get_lib(lib)
    n = len(batch)
    cells = n_scenarios() * n
    inputs = arena.reserve("inputs", (4, cells))
    gS, gX, gT, gsig = _expand(batch, out=inputs)
    grid = arena.reserve("result", cells)
    per_slab = None
    if not executor.out_of_process:
        slabs = executor.plan(cells, SCENARIO_BYTES_PER_CELL)
        scratch = [arena.reserve(f"scratch{i}", (3, b - a))
                   for i, (a, b) in enumerate(slabs)]
        per_slab = lambda a, b, i: {"scratch": scratch[i]}  # noqa: E731
    dispatch = arena.adopt(executor.compile_shm(
        _scenario_slab_task, cells,
        bytes_per_item=SCENARIO_BYTES_PER_CELL,
        sliced={"S": gS, "X": gX, "T": gT, "sig": gsig, "grid": grid},
        writes=("grid",),
        outputs={"grid": ("grid",)},
        consts={"r": batch.rate, "lib": lib},
        per_slab=per_slab, tag="bssc"))
    slab = ResultSlab({"grid": grid})

    def run() -> ResultSlab:
        dispatch.run()
        return slab

    def rebind(new: OptionBatch) -> None:
        if (new.n != batch.n or new.rate != batch.rate
                or new.vol != batch.vol):
            raise ConfigurationError(
                "scenario batch width/rate/vol are compiled into the "
                "plan; compile a new plan")
        if new is not batch:
            for name in ("S", "X", "T"):
                np.copyto(batch.batch.get(name), new.batch.get(name))
        _expand(batch, out=inputs)

    return run, rebind

"""Binomial tree *parallel* tier: slab over options, node-major sweep.

The paper parallelises the binomial benchmark over its
embarrassingly-parallel outer dimension — independent options
(Sec. IV-B).  Here a slab is a contiguous group of options whose tree
rows fit the LLC budget together, stored node-major
(``(n_steps+1, lanes)``), so the vector axis is *options × nodes*: one
backward time step is three ufunc calls over a contiguous block of
every live node of every option, and the time step is the only
Python-level loop.

Every node is still ``pu·right + pd·left`` — two separate products and
one add on the same values — so root prices are bit-identical to the
register-tiled :func:`~.tiled.price_tiled` (the same reduction tree
along anti-diagonals; it stays as the lane-accurate *modeled* tier) and
to :func:`~.simd_across.price_simd_across`, for any slab partition,
backend or worker count.
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...errors import DomainError
from ...parallel.slab import SlabExecutor
from ...plan import one_shot
from ...pricing.options import ExerciseStyle
from .params import crr_params, leaf_values


def _european_group(options) -> list:
    """The option group as a list, rejecting what the sweep cannot
    price."""
    options = list(options)
    if not options:
        raise DomainError("empty option group")
    if any(o.style is ExerciseStyle.AMERICAN for o in options):
        raise DomainError(
            "the parallel tier's backward sweep omits the per-step "
            "intrinsic max, so it prices European exercise only; use the "
            "basic/simd_across tiers for American options"
        )
    return options


def plan_sweep(options, n_steps: int, reserve) -> dict:
    """One slab's sweep workspace through ``reserve(name, shape)``:
    the transposed leaves, the ``call``/``t1``/``t2`` node-major trio
    and the per-lane CRR coefficients."""
    shape = (n_steps + 1, len(options))
    ws = {name: reserve(name, shape)
          for name in ("leaves", "call", "t1", "t2")}
    pu = ws["pu"] = reserve("pu", len(options))
    pd = ws["pd"] = reserve("pd", len(options))
    for lane, o in enumerate(options):
        p = crr_params(o, n_steps)
        ws["leaves"][:, lane] = leaf_values(o, p)
        pu[lane] = p.pu_by_df
        pd[lane] = p.pd_by_df
    return ws


def sweep_node_major(ws: dict, out: np.ndarray) -> None:
    """Refill ``call`` from the leaves and reduce it to the roots in
    place: per step, the ``w`` live node rows of every lane at once."""
    call, t1, t2 = ws["call"], ws["t1"], ws["t2"]
    pu, pd = ws["pu"], ws["pd"]
    np.copyto(call, ws["leaves"])
    for w in range(call.shape[0] - 1, 0, -1):
        np.multiply(call[1:w + 1], pu, out=t1[:w])
        np.multiply(call[:w], pd, out=t2[:w])
        np.add(t1[:w], t2[:w], out=call[:w])
    np.copyto(out, call[0])


def _sweep_slab(arrays: dict, consts: dict, a: int, b: int,
                slab: int) -> None:
    """Slab task (module-level for process-backend pickling): sweep
    the planned workspace when the dispatch ships one, else build it
    for this slab's options (shipped via ``per_slab``) first."""
    ws = consts.get("ws") or plan_sweep(
        consts["options"], consts["n_steps"],
        lambda name, shape: np.empty(shape, dtype=DTYPE))
    sweep_node_major(ws, arrays["out"])


def compile_price_tiled(options, n_steps: int, executor: SlabExecutor,
                        arena):
    """Plan-compile the parallel tier.

    Everything that depends only on the contracts is hoisted to
    compile time: CRR parameters, the transposed leaf values (the
    options are baked into the plan) and one sweep workspace per slab —
    so each warm run is a leaf refill plus the sweep, with zero
    allocations.  Out-of-process workers own their address space, so
    there the dispatch ships the options and each run builds its
    workspace in the worker.
    """
    options = _european_group(options)
    nopt = len(options)
    out = arena.reserve("result", nopt)
    if executor.out_of_process:
        def per_slab(a, b, i):
            return {"options": options[a:b]}
    else:
        def per_slab(a, b, i):
            return {"ws": plan_sweep(
                options[a:b], n_steps,
                lambda name, shape: arena.reserve(f"{name}{i}", shape))}
    # Per option in flight: the call/t1/t2 tree rows.
    dispatch = arena.adopt(executor.compile_lanes(
        _sweep_slab, nopt, bytes_per_item=3 * (n_steps + 1) * 8,
        sliced={"out": out}, writes=("out",),
        consts={"n_steps": n_steps}, per_slab=per_slab, tag="bin"))

    def run() -> np.ndarray:
        dispatch.run()
        return out

    return run


def price_tiled_parallel(options, n_steps: int,
                         executor: SlabExecutor | None = None) -> np.ndarray:
    """European pricing over option slabs: the one-shot of
    :func:`compile_price_tiled`.

    Returns one root price per option, bit-identical to the serial
    :func:`~.tiled.price_tiled` for any backend/worker count.
    """
    return one_shot(compile_price_tiled, options, n_steps,
                    executor=executor)

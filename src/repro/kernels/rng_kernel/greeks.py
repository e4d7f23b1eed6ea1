"""RNG pathwise Greeks: generation fused straight into risk outputs.

The RNG kernel's risk workload closes the loop from raw generation to
sensitivities: each item draws its own two 53-bit uniforms, folds them
through the Box-Muller cosine branch, and evaluates a terminal GBM
call's **pathwise** (infinitesimal-perturbation) estimators

``delta_i = e^{-rT}·1{S_T > K}·S_T/S₀``
``vega_i  = e^{-rT}·1{S_T > K}·S_T·(√T·z − σT)``

— derivative estimates with no bump and no revaluation, the
measure-theoretic counterpart of the CRN tiers.  Slab ``[a, b)``
starts past the ``2a`` doubles the preceding items consume and fills
its uniform block from compile-time lane snapshots, exactly like the
price tier (:mod:`.parallel`), so the uniforms — and every output —
are bit-identical to a single sequential stream for any backend, slab
plan or worker count.
"""

from __future__ import annotations

import math

import numpy as np

from ...errors import ConfigurationError
from ...parallel.slab import SlabExecutor
from ...plan import WorkspaceArena
from ...results import ResultSlab
from .parallel import lane_tabulate, plan_snapshots

#: Contract priced by every path: a slightly-OTM European call.
SPOT = 100.0
STRIKE = 105.0
RATE = 0.02
VOL = 0.3
HORIZON = 1.0

#: Uniform doubles consumed per path (one Box-Muller pair).
UNIFORMS_PER_PATH = 2

#: Logical outputs of the pathwise tier.
PATHWISE_OUTPUTS = ("price", "delta", "vega")

_WRITES = ("price", "delta", "vega")
_SCHEMA = {name: (name,) for name in _WRITES}

_TINY = float(np.finfo(np.float64).tiny)
_TWO_PI = 2.0 * math.pi


def _pathwise(u: np.ndarray, z, st, tmp, itm, price, delta,
              vega) -> None:
    """Uniform pairs -> Box-Muller normals -> pathwise outputs, all in
    place (``u`` is the ``2·lanes`` uniform block, consumption order)."""
    sqrt_t = math.sqrt(HORIZON)
    df = math.exp(-RATE * HORIZON)
    np.maximum(u[0::2], _TINY, out=z)
    np.log(z, out=z)
    z *= -2.0
    np.sqrt(z, out=z)
    np.multiply(u[1::2], _TWO_PI, out=tmp)
    np.cos(tmp, out=tmp)
    z *= tmp                               # z = Box-Muller (cos branch)
    np.multiply(z, VOL * sqrt_t, out=st)
    st += (RATE - 0.5 * VOL * VOL) * HORIZON
    np.exp(st, out=st)
    st *= SPOT                             # S_T
    np.greater(st, STRIKE, out=itm)
    np.subtract(st, STRIKE, out=price)
    np.maximum(price, 0.0, out=price)
    price *= df
    np.multiply(st, df / SPOT, out=delta)
    delta *= itm                           # pathwise delta
    np.multiply(z, sqrt_t, out=tmp)
    tmp -= VOL * HORIZON
    tmp *= st
    tmp *= df
    tmp *= itm                             # pathwise vega
    np.copyto(vega, tmp)


def _workspace(lanes: int, reserve) -> dict:
    """One slab's uniform block and transform scratch, each buffer
    from ``reserve(name, shape[, dtype])``
    (:meth:`~repro.plan.WorkspaceArena.reserve`'s signature)."""
    return {"u": reserve("u", UNIFORMS_PER_PATH * lanes),
            "z": reserve("z", lanes), "st": reserve("stt", lanes),
            "tmp": reserve("tmp", lanes),
            "itm": reserve("itm", lanes, bool)}


def _greeks_slab(arrays: dict, consts: dict, a: int, b: int,
                 slab: int) -> None:
    """Slab task, all four backends (module-level for process-backend
    pickling): tabulate this slab's uniforms from its lane snapshots
    and evaluate the pathwise outputs — through the plan's scratch, or
    in a worker process, which owns no arena, scratch allocated for
    the call."""
    ws = consts.get("scratch") or _workspace(
        b - a, WorkspaceArena("rngpw").reserve)
    lane_tabulate(arrays, consts, ws["u"])
    _pathwise(ws["u"], ws["z"], ws["st"], ws["tmp"], ws["itm"],
              arrays["price"], arrays["delta"], arrays["vega"])


def _result_slab(backing: np.ndarray, n: int) -> ResultSlab:
    return ResultSlab(
        {"price": backing[:n], "delta": backing[n:2 * n],
         "vega": backing[2 * n:]},
        backing=backing)


def compile_pathwise_parallel(n: int, seed: int,
                              executor: SlabExecutor, arena):
    """Plan-compile the pathwise tier: the stream walk runs once at
    compile time and leaves lane snapshots (the price tier's
    :func:`~.parallel.plan_snapshots`), and — in process — the lane
    workspace, uniform block, transform scratch and ``3n`` result
    backing are arena-owned: warm runs generate and evaluate with zero
    hot-path allocations."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    backing = arena.reserve("result", 3 * n)
    views = _result_slab(backing, n)
    slabs = executor.plan(n, 8 * 10)
    snaps, marks = plan_snapshots(seed, slabs, UNIFORMS_PER_PATH, executor,
                                  arena)
    if not executor.out_of_process:
        for i, (a, b) in enumerate(slabs):
            marks[i]["scratch"] = _workspace(b - a, arena.scoped(i))
    dispatch = arena.adopt(executor.compile_shm(
        _greeks_slab, n, bytes_per_item=8 * 10,
        sliced={"price": views["price"], "delta": views["delta"],
                "vega": views["vega"]},
        shared={"snaps": snaps}, writes=_WRITES, outputs=_SCHEMA,
        per_slab=lambda a, b, i: marks[i], tag="rngpw"))

    def run() -> ResultSlab:
        dispatch.run()
        return views

    return run

"""RNG pathwise Greeks: generation fused straight into risk outputs.

The RNG kernel's risk workload closes the loop from raw generation to
sensitivities: each item draws its own two 53-bit uniforms, folds them
through the Box-Muller cosine branch, and evaluates a terminal GBM
call's **pathwise** (infinitesimal-perturbation) estimators

``delta_i = e^{-rT}·1{S_T > K}·S_T/S₀``
``vega_i  = e^{-rT}·1{S_T > K}·S_T·(√T·z − σT)``

— derivative estimates with no bump and no revaluation, the
measure-theoretic counterpart of the CRN tiers.  Slab ``[a, b)`` runs
a fresh generator jump-ahead past the ``4a`` raw draws the preceding
items consume (two doubles of two raw draws each), so the uniforms —
and every output — are bit-identical to a single sequential stream for
any backend, slab plan or worker count, exactly like the price tier's
jump-ahead partitioning.
"""

from __future__ import annotations

import math

import numpy as np

from ...config import DTYPE
from ...errors import ConfigurationError
from ...parallel.slab import SlabExecutor
from ...plan import one_shot
from ...results import ResultSlab
from ...rng.mt19937 import MT19937, block_workspace, uniform53_into

#: Contract priced by every path: a slightly-OTM European call.
SPOT = 100.0
STRIKE = 105.0
RATE = 0.02
VOL = 0.3
HORIZON = 1.0

#: Raw 32-bit outputs consumed per path: two doubles, two draws each.
DRAWS_PER_PATH = 4

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


def _pathwise_slab(arrays: dict, consts: dict, a: int, b: int,
                   slab: int) -> None:
    """Slab task (module-level for process-backend pickling): jump-ahead
    generate this slab's uniforms and evaluate the pathwise outputs."""
    lanes = b - a
    gen = MT19937(consts["seed"]).jumped_copy(DRAWS_PER_PATH * a)
    u = gen.uniform53(2 * lanes)
    z = np.empty(lanes, dtype=DTYPE)
    st = np.empty(lanes, dtype=DTYPE)
    tmp = np.empty(lanes, dtype=DTYPE)
    itm = np.empty(lanes, dtype=bool)
    _pathwise(u, z, st, tmp, itm, arrays["price"], arrays["delta"],
              arrays["vega"])


def _pathwise_slab_planned(arrays: dict, consts: dict, a: int, b: int,
                           slab: int) -> None:
    """Planned slab task: restore the pre-jumped state snapshot,
    tabulate the uniforms through the slab workspace, and evaluate —
    the O(a) skip was paid once, at compile time."""
    ws = consts["ws"]
    mt = ws["mt"]
    np.copyto(mt, consts["snap_mt"])
    uniform53_into(mt, consts["snap_mti"], ws["u"], ws)
    _pathwise(ws["u"], ws["z"], ws["st"], ws["tmp"], ws["itm"],
              arrays["price"], arrays["delta"], arrays["vega"])


def _result_slab(backing: np.ndarray, n: int) -> ResultSlab:
    return ResultSlab(
        {"price": backing[:n], "delta": backing[n:2 * n],
         "vega": backing[2 * n:]},
        backing=backing)


def pathwise_parallel(n: int, seed: int = 5489,
                      executor: SlabExecutor | None = None) -> ResultSlab:
    """``n`` per-path price/delta/vega contributions, slab-parallel:
    the one-shot of :func:`compile_pathwise_parallel`.

    Returns a :class:`~repro.results.ResultSlab` with ``price``,
    ``delta`` and ``vega``; the option-level estimate is the mean of
    each vector.  Bit-identical to a single sequential stream for any
    backend, slab plan or worker count.
    """
    return one_shot(compile_pathwise_parallel, n, seed, executor=executor)


def compile_pathwise_parallel(n: int, seed: int,
                              executor: SlabExecutor, arena):
    """Plan-compile the pathwise tier: per-slab jump-ahead skips run
    once at compile time (624-word state snapshots in the arena, the
    same trick as the price tier's planner), and the uniform block,
    transform scratch and ``3n`` result backing are arena-owned — warm
    runs generate and evaluate with zero hot-path allocations."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    backing = arena.reserve("result", 3 * n)
    views = _result_slab(backing, n)
    sliced = {"price": views["price"], "delta": views["delta"],
              "vega": views["vega"]}
    if executor.out_of_process:
        dispatch = arena.adopt(executor.compile_shm(
            _pathwise_slab, n, bytes_per_item=8 * 10,
            sliced=sliced, writes=_WRITES, outputs=_SCHEMA,
            consts={"seed": seed}, tag="rngpw"))
    else:
        slabs = executor.plan(n, 8 * 10)
        walker = MT19937(seed)
        cursor = 0
        snaps = []
        for a, b in slabs:
            walker = walker.jumped_copy(DRAWS_PER_PATH * (a - cursor))
            cursor = a
            snap = arena.reserve(f"snap{len(snaps)}", walker.state_size,
                                 dtype=np.uint32)
            np.copyto(snap, walker._mt)
            snaps.append((snap, walker._mti))
        wss = []
        for i, (a, b) in enumerate(slabs):
            lanes = b - a

            def _reserve(name, shape, dtype, i=i):
                return arena.reserve(f"{name}{i}", shape, dtype=dtype)
            ws = block_workspace(2 * lanes, reserve=_reserve)
            ws["mt"] = arena.reserve(f"mt{i}", MT19937.state_size,
                                     dtype=np.uint32)
            ws["u"] = arena.reserve(f"u{i}", 2 * lanes)
            ws["z"] = arena.reserve(f"z{i}", lanes)
            ws["st"] = arena.reserve(f"stt{i}", lanes)
            ws["tmp"] = arena.reserve(f"tmp{i}", lanes)
            ws["itm"] = arena.reserve(f"itm{i}", lanes, dtype=bool)
            wss.append(ws)
        dispatch = arena.adopt(executor.compile_shm(
            _pathwise_slab_planned, n, bytes_per_item=8 * 10,
            sliced=sliced, writes=_WRITES, outputs=_SCHEMA,
            per_slab=lambda a, b, i: {"ws": wss[i],
                                      "snap_mt": snaps[i][0],
                                      "snap_mti": snaps[i][1]},
            tag="rngpw"))

    def run() -> ResultSlab:
        dispatch.run()
        return views

    return run

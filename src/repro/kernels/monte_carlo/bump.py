"""Monte-Carlo bump-and-revalue Greeks with common random numbers.

The risk tier for STREAM mode: each option is revalued under five
scenarios — base, spot bumped ±h·S, vol bumped ±h·σ — and the Greeks
come from central differences.  Every scenario replays the **same**
shared normal stream (common random numbers): the path noise is
perfectly correlated across the bumped revaluations, so it cancels in
the differences and the finite-difference estimator's variance drops
by orders of magnitude versus independent draws (the classic CRN
result; the test suite checks the inequality empirically).

Every scenario is one call of the STREAM tail body
:func:`~.parallel._price_option_tail` on the run's sorted stream, so
the tier's ``price`` output equals the price-only parallel tier's,
stays within ``tolerance`` of the reference and is bit-identical across
backends.
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...parallel.slab import SlabExecutor
from ...plan import one_shot
from ...pricing.bump import BUMP_REL, check_bump
from ...results import ResultSlab
from .parallel import BLOCK, _price_option_tail, _sorted_stream
from .reference import _check

#: Write-array names in backing order: price/stderr first so the
#: ``price`` logical output is the same contiguous ``[price | stderr]``
#: span the price-only tiers expose.
BUMP_WRITES = ("price", "stderr", "delta", "gamma", "vega")

#: Multi-output schema: logical output -> the write arrays carrying it.
BUMP_SCHEMA = {
    "price": ("price", "stderr"),
    "delta": ("delta",),
    "gamma": ("gamma",),
    "vega": ("vega",),
}

BUMP_OUTPUTS = tuple(BUMP_SCHEMA)


def _bump_slab(arrays: dict, consts: dict, a: int, b: int,
               slab: int) -> None:
    """Bump-and-revalue slab task (module-level for process-backend
    pickling): five CRN revaluations per option, Greeks from central
    differences."""
    S, X, T = arrays["S"], arrays["X"], arrays["T"]
    price, stderr = arrays["price"], arrays["stderr"]
    delta, gamma, vega = arrays["delta"], arrays["gamma"], arrays["vega"]
    # CRN: every scenario replays this same sorted stream.
    zs = arrays["randoms"]
    rate, vol, block = consts["rate"], consts["vol"], consts["block"]
    h = consts["h"]
    scratch = consts.get("scratch")
    if scratch is None:
        scratch = np.empty(min(block, zs.size), dtype=DTYPE)
    for o in range(S.shape[0]):
        s, x, t = S[o], X[o], T[o]
        price[o], stderr[o] = _price_option_tail(
            s, x, t, rate, vol, zs, block, scratch)
        up_s, _ = _price_option_tail(
            s * (1.0 + h), x, t, rate, vol, zs, block, scratch)
        dn_s, _ = _price_option_tail(
            s * (1.0 - h), x, t, rate, vol, zs, block, scratch)
        up_v, _ = _price_option_tail(
            s, x, t, rate, vol * (1.0 + h), zs, block, scratch)
        dn_v, _ = _price_option_tail(
            s, x, t, rate, vol * (1.0 - h), zs, block, scratch)
        delta[o] = (up_s - dn_s) / (2.0 * h * s)
        gamma[o] = (up_s - 2.0 * price[o] + dn_s) / ((h * s) * (h * s))
        vega[o] = (up_v - dn_v) / (2.0 * h * vol)


def _result_slab(backing: np.ndarray, nopt: int) -> ResultSlab:
    """The logical view of one ``5n`` backing vector: ``price`` is the
    ``2n`` ``[price | stderr]`` span, the Greeks one ``n`` span each."""
    return ResultSlab(
        {"price": backing[:2 * nopt],
         "delta": backing[2 * nopt:3 * nopt],
         "gamma": backing[3 * nopt:4 * nopt],
         "vega": backing[4 * nopt:]},
        backing=backing)


def _views(backing: np.ndarray, nopt: int) -> dict:
    return {name: backing[i * nopt:(i + 1) * nopt]
            for i, name in enumerate(BUMP_WRITES)}


def greeks_stream_parallel(S, X, T, rate: float, vol: float,
                           randoms: np.ndarray,
                           executor: SlabExecutor | None = None,
                           block: int = BLOCK,
                           h: float = BUMP_REL) -> ResultSlab:
    """STREAM-mode bump Greeks over option slabs: the one-shot of
    :func:`compile_greeks_stream`.

    Returns a :class:`~repro.results.ResultSlab` with outputs
    ``price`` (the ``[price | stderr]`` pair), ``delta``, ``gamma``
    and ``vega``.  Bit-identical across backends: the slab plan, the
    replayed stream and the difference arithmetic are all deterministic.
    """
    return one_shot(compile_greeks_stream, S, X, T, rate, vol, randoms,
                    executor=executor, block=block, h=h)


def compile_greeks_stream(S, X, T, rate: float, vol: float,
                          randoms: np.ndarray, executor: SlabExecutor,
                          arena, block: int = BLOCK,
                          h: float = BUMP_REL):
    """Plan-compile the bump-Greeks tier for repeated same-shape calls:
    the ``5n`` backing vector, the sorted stream and per-slab payoff
    scratch live in ``arena``, and warm runs sort the stream once and
    replay the compiled dispatch with zero hot-path allocations."""
    S = np.asarray(S, dtype=DTYPE)
    X = np.asarray(X, dtype=DTYPE)
    T = np.asarray(T, dtype=DTYPE)
    _check(S, X, T, rate, vol)
    zs, refresh = _sorted_stream(randoms, arena)
    check_bump(h)
    nopt = S.shape[0]
    n_paths = zs.size
    backing = arena.reserve("result", 5 * nopt)
    views = _views(backing, nopt)
    per_slab = None
    if not executor.out_of_process:
        def per_slab(a, b, i):
            return {"scratch": arena.reserve(f"scratch{i}",
                                             min(block, n_paths))}
    # Five revaluations per option: five passes over the stream.
    dispatch = arena.adopt(executor.compile_shm(
        _bump_slab, nopt, bytes_per_item=5 * 8 * n_paths,
        sliced={"S": S, "X": X, "T": T, **views},
        shared={"randoms": zs},
        writes=BUMP_WRITES,
        outputs=BUMP_SCHEMA,
        consts={"rate": rate, "vol": vol, "block": block, "h": h},
        per_slab=per_slab, tag="mcg"))
    slab = _result_slab(backing, nopt)

    def run() -> ResultSlab:
        refresh()
        dispatch.run()
        return slab

    return run

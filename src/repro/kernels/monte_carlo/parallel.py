"""Monte-Carlo *parallel* tier: Table II row 1 (STREAM mode) with the
option batch slabbed across :class:`~repro.parallel.slab.SlabExecutor`.

:func:`compile_price_stream` declares the tier's one dispatch and
:func:`price_stream_parallel` is its one-shot.  Every option re-reads
one shared normal stream, so the paths that put an option in the money
are exactly the draws above a per-option threshold ``z*``: each run
sorts a copy of the stream once (:func:`_sorted_stream`), and
:func:`_price_option_tail` evaluates only the tail above ``z*``, through
one reusable scratch block per slab.  Prices and standard errors are
within the workload ``tolerance`` of the reference; bit-identical across
backends.  Table II row 2 (computed RNG) stays serial:
:func:`~.vectorized.price_computed`.
"""

from __future__ import annotations

import math

import numpy as np

from ...config import DTYPE
from ...errors import ConfigurationError
from ...parallel.slab import SlabExecutor
from ...plan import one_shot
from .reference import MCResult, _check

#: Tail block (draws): 512 KB of scratch, inside a 4 MiB private L2.
#: Warm serial runs at 16 × 327 680, sort included, median of 6
#: interleaved rounds (the nine-pass body it replaced: 15.8 ms):
#: 8192 9.5, 16 384 8.4, 32 768 8.1, 65 536 7.8 ms — smaller blocks
#: only add per-call cost.
BLOCK = 65536


def _price_option_tail(s: float, x: float, t: float, rate: float,
                       vol: float, zs: np.ndarray, block: int,
                       scratch: np.ndarray) -> tuple:
    """One option's discounted mean/stderr from the sorted stream ``zs``.

    A path pays ``a·e^{σ√t·z} − x`` (``a = s·e^{μt}``) exactly when
    ``z > z* = (ln(x/s) − μt)/(σ√t)``, so only ``zs[k0:]`` is evaluated,
    block by block in ``scratch``; the paths below pay 0 and count in
    ``n`` only.  The payoff is kept in units of ``a`` (``e' − x/a``) and
    squared per path, not expanded into moments of ``e'``, so a single
    path gives a variance of exactly 0, as the reference chain does.
    """
    n = zs.size
    v_rt_t = math.sqrt(t) * vol
    mu_t = t * (rate - 0.5 * vol * vol)
    k0 = int(zs.searchsorted((math.log(x / s) - mu_t) / v_rt_t,
                             side="right"))
    a = s * math.exp(mu_t)
    c = x / a
    v0 = 0.0
    v1 = 0.0
    for lo in range(k0, n, block):
        w = scratch[:min(block, n - lo)]
        np.multiply(zs[lo:lo + w.size], v_rt_t, out=w)
        np.exp(w, out=w)
        w -= c
        v0 += float(w.sum())
        np.multiply(w, w, out=w)
        v1 += float(w.sum())
    df = math.exp(-rate * t) * a
    mean = v0 / n
    var = max(0.0, v1 / n - mean * mean)
    return max(0.0, df * mean), df * math.sqrt(var / n)


def _sorted_stream(randoms, arena) -> tuple:
    """The sorted copy of the shared stream both STREAM tiers price from:
    ``(zs, refresh)``, where ``zs`` is an arena buffer and ``refresh()``
    copies ``randoms`` into it and sorts it in place, once per run before
    the dispatch.  The caller's array is never reordered, a rebound or
    edited stream is priced as it stands, and out of process the
    dispatch's copy-in carries the sorted draws."""
    randoms = np.asarray(randoms, dtype=DTYPE)
    if randoms.ndim != 1 or randoms.size == 0:
        raise ConfigurationError("randoms must be a non-empty 1-D stream")
    zs = arena.reserve("zs", randoms.size)

    def refresh() -> None:
        np.copyto(zs, randoms)
        zs.sort()

    return zs, refresh


def _stream_slab(arrays: dict, consts: dict, a: int, b: int,
                 slab: int) -> None:
    """STREAM-mode slab task (module-level for process-backend pickling):
    price this slab's options against the sorted shared stream."""
    S, X, T = arrays["S"], arrays["X"], arrays["T"]
    price, stderr = arrays["price"], arrays["stderr"]
    zs = arrays["randoms"]
    rate, vol, block = consts["rate"], consts["vol"], consts["block"]
    scratch = consts.get("scratch")
    if scratch is None:
        scratch = np.empty(min(block, zs.size), dtype=DTYPE)
    for o in range(S.shape[0]):
        price[o], stderr[o] = _price_option_tail(
            S[o], X[o], T[o], rate, vol, zs, block, scratch)


def price_stream_parallel(S, X, T, rate: float, vol: float,
                          randoms: np.ndarray,
                          executor: SlabExecutor | None = None,
                          block: int = BLOCK) -> MCResult:
    """STREAM mode over option slabs, the one-shot of
    :func:`compile_price_stream`: results land in preallocated output
    views.  Within the workload tolerance of
    :func:`~.vectorized.price_stream`; bit-identical for any
    backend/worker count."""
    result = one_shot(compile_price_stream, S, X, T, rate, vol, randoms,
                      executor=executor, block=block)
    nopt = result.shape[0] // 2
    return MCResult(price=result[:nopt], stderr=result[nopt:],
                    n_paths=np.size(randoms))


def compile_price_stream(S, X, T, rate: float, vol: float,
                         randoms: np.ndarray, executor: SlabExecutor,
                         arena, block: int = BLOCK):
    """Plan-compile STREAM mode for repeated same-shape calls.

    The ``[price | stderr]`` result vector, the sorted stream and one
    scratch block per in-caller slab live in ``arena``; each run sorts
    the stream once and prices every option's in-the-money tail with
    :func:`_price_option_tail`.
    """
    S = np.asarray(S, dtype=DTYPE)
    X = np.asarray(X, dtype=DTYPE)
    T = np.asarray(T, dtype=DTYPE)
    _check(S, X, T, rate, vol)
    zs, refresh = _sorted_stream(randoms, arena)
    nopt = S.shape[0]
    n_paths = zs.size
    result = arena.reserve("result", 2 * nopt)
    price, stderr = result[:nopt], result[nopt:]
    per_slab = None
    if not executor.out_of_process:
        def per_slab(a, b, i):
            return {"scratch": arena.reserve(f"scratch{i}",
                                             min(block, n_paths))}
    # Per-option traffic: at most one pass over the stream (plus the
    # scratch).
    dispatch = arena.adopt(executor.compile_shm(
        _stream_slab, nopt, bytes_per_item=8 * n_paths,
        sliced={"S": S, "X": X, "T": T, "price": price, "stderr": stderr},
        shared={"randoms": zs},
        writes=("price", "stderr"),
        consts={"rate": rate, "vol": vol, "block": block},
        per_slab=per_slab, tag="mc"))

    def run() -> np.ndarray:
        refresh()
        dispatch.run()
        return result

    return run

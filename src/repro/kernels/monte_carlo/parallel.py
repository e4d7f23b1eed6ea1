"""Monte-Carlo *parallel* tier: Table II row 1 (STREAM mode) with the
option batch slabbed across :class:`~repro.parallel.slab.SlabExecutor`.

:func:`compile_price_stream` declares the tier's one dispatch and
:func:`price_stream_parallel` is its one-shot.  The per-option math is
op-for-op identical to :func:`~.vectorized.price_stream` but fused into
one reusable scratch block per slab (no temporary per ufunc), so every
backend and the vectorized tier are bit-identical.  Table II row 2
(computed RNG) stays serial: :func:`~.vectorized.price_computed`.
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...errors import ConfigurationError
from ...parallel.slab import SlabExecutor
from ...plan import one_shot
from .reference import MCResult, _check


def _price_option_fused(s: float, x: float, t: float, rate: float,
                        vol: float, n_paths: int, draw, block: int,
                        scratch: np.ndarray) -> tuple:
    """One option's discounted mean/stderr, block by block.

    The payoff chain runs in place through ``scratch`` — the operation
    order matches :func:`~.vectorized._price` exactly (IEEE ops in the
    same sequence), so results are bit-identical to the serial tier.
    """
    v_rt_t = np.sqrt(t) * vol
    mu_t = t * (rate - 0.5 * vol * vol)
    v0 = 0.0
    v1 = 0.0
    done = 0
    while done < n_paths:
        take = min(block, n_paths - done)
        z = draw(take, done)
        w = scratch[:take]
        np.multiply(z, v_rt_t, out=w)
        w += mu_t
        np.exp(w, out=w)
        w *= s
        w -= x
        np.maximum(w, 0.0, out=w)
        v0 += float(w.sum())
        np.multiply(w, w, out=w)
        v1 += float(w.sum())
        done += take
    df = np.exp(-rate * t)
    mean = v0 / n_paths
    var = max(0.0, v1 / n_paths - mean * mean)
    return df * mean, df * np.sqrt(var / n_paths)


def _stream_slab(arrays: dict, consts: dict, a: int, b: int,
                 slab: int) -> None:
    """STREAM-mode slab task (module-level for process-backend pickling):
    price this slab's options against the shared random stream."""
    S, X, T = arrays["S"], arrays["X"], arrays["T"]
    price, stderr = arrays["price"], arrays["stderr"]
    randoms = arrays["randoms"]
    rate, vol, block = consts["rate"], consts["vol"], consts["block"]
    n_paths = randoms.size
    scratch = consts.get("scratch")
    if scratch is None:
        scratch = np.empty(min(block, n_paths), dtype=DTYPE)
    for o in range(S.shape[0]):
        price[o], stderr[o] = _price_option_fused(
            S[o], X[o], T[o], rate, vol, n_paths,
            lambda n, lo: randoms[lo:lo + n], block, scratch)


def price_stream_parallel(S, X, T, rate: float, vol: float,
                          randoms: np.ndarray,
                          executor: SlabExecutor | None = None,
                          block: int = 65536) -> MCResult:
    """STREAM mode over option slabs, the one-shot of
    :func:`compile_price_stream`: every option re-reads the shared
    random array (cache-resident once per slab), results land in
    preallocated output views.  Bit-identical to
    :func:`~.vectorized.price_stream` for any backend/worker count."""
    result = one_shot(compile_price_stream, S, X, T, rate, vol, randoms,
                      executor=executor, block=block)
    nopt = result.shape[0] // 2
    return MCResult(price=result[:nopt], stderr=result[nopt:],
                    n_paths=np.size(randoms))


def compile_price_stream(S, X, T, rate: float, vol: float,
                         randoms: np.ndarray, executor: SlabExecutor,
                         arena, block: int = 65536):
    """Plan-compile STREAM mode for repeated same-shape calls.

    The ``[price | stderr]`` result vector and one payoff-scratch block
    per slab live in ``arena``; the shared random stream is validated
    and staged once at compile time and, out of process, copied to its
    segment once per run.  The per-option math is the fused chain of
    :func:`_price_option_fused`.
    """
    S = np.asarray(S, dtype=DTYPE)
    X = np.asarray(X, dtype=DTYPE)
    T = np.asarray(T, dtype=DTYPE)
    _check(S, X, T, vol)
    randoms = np.asarray(randoms, dtype=DTYPE)
    if randoms.ndim != 1 or randoms.size == 0:
        raise ConfigurationError("randoms must be a non-empty 1-D stream")
    nopt = S.shape[0]
    n_paths = randoms.size
    result = arena.reserve("result", 2 * nopt)
    price, stderr = result[:nopt], result[nopt:]
    per_slab = None
    if not executor.out_of_process:
        slabs = executor.plan(nopt, 8 * n_paths)
        scratch = [arena.reserve(f"scratch{i}", min(block, n_paths))
                   for i in range(len(slabs))]
        per_slab = lambda a, b, i: {"scratch": scratch[i]}  # noqa: E731
    # Per-option traffic: one pass over the stream (plus the scratch).
    dispatch = arena.adopt(executor.compile_shm(
        _stream_slab, nopt, bytes_per_item=8 * n_paths,
        sliced={"S": S, "X": X, "T": T, "price": price, "stderr": stderr},
        shared={"randoms": randoms},
        writes=("price", "stderr"),
        consts={"rate": rate, "vol": vol, "block": block},
        per_slab=per_slab, tag="mc"))

    def run() -> np.ndarray:
        dispatch.run()
        return result

    return run

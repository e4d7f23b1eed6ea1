"""Monte-Carlo *parallel* tier: slab dispatch + per-slab RNG streams.

Three engines on top of :class:`~repro.parallel.slab.SlabExecutor`:

* :func:`price_stream_parallel` — Table II row 1 (STREAM mode) with the
  option batch slabbed across the pool.  The per-option math is
  op-for-op identical to :func:`~.vectorized.price_stream` but fused
  into one reusable scratch block per slab (no temporary per ufunc), so
  serial, threaded and the existing vectorized tier are bit-identical.
* :func:`price_computed_parallel` — Table II row 2 (computed RNG): each
  slab owns an independent random stream (the deterministic per-slab
  refinement of the paper's per-thread interleaved RNG, Sec. IV-D3) and
  generates normals chunk by chunk — at no point does a full
  ``nopt × n_paths`` matrix exist.
* :func:`price_asian_parallel` — the Asian extension slabbed over
  *paths*: per-slab streams, per-slab GBM chunks (never the full path
  matrix), moment accumulation combined in slab order so the reduction
  is bit-reproducible across backends.
"""

from __future__ import annotations

import math

import numpy as np

from ...config import DTYPE
from ...errors import ConfigurationError
from ...parallel.slab import SlabExecutor, default_executor
from ...plan import one_shot
from ...pricing.exotic_analytic import geometric_asian_call
from ...pricing.options import Option, OptionKind
from ...rng import NormalGenerator, make_streams
from .asian import _fixing_payoffs
from .lsmc import simulate_gbm_paths
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


def _computed_slab(arrays: dict, consts: dict, a: int, b: int,
                   slab: int) -> None:
    """Computed-RNG slab task: this slab's options priced from the
    slab's own independent stream (shipped via ``per_slab``)."""
    S, X, T = arrays["S"], arrays["X"], arrays["T"]
    price, stderr = arrays["price"], arrays["stderr"]
    n_paths, block = consts["n_paths"], consts["block"]
    gen = NormalGenerator(consts["stream"], consts["method"])
    scratch = np.empty(min(block, n_paths), dtype=DTYPE)
    for o in range(S.shape[0]):
        price[o], stderr[o] = _price_option_fused(
            S[o], X[o], T[o], consts["rate"], consts["vol"], n_paths,
            lambda n, lo: gen.normals(n), block, scratch)


def price_computed_parallel(S, X, T, rate: float, vol: float,
                            n_paths: int,
                            executor: SlabExecutor | None = None,
                            seed: int = 2012, kind: str = "mt2203",
                            method: str = "box_muller",
                            block: int = 65536) -> MCResult:
    """Computed-RNG mode: per-slab independent streams, chunked
    generation.  Deterministic for a fixed ``(seed, slab plan)`` —
    serial and threaded backends agree bit-for-bit — but the draws
    differ from any serial single-stream tier by construction."""
    S = np.asarray(S, dtype=DTYPE)
    X = np.asarray(X, dtype=DTYPE)
    T = np.asarray(T, dtype=DTYPE)
    _check(S, X, T, vol)
    if n_paths < 1:
        raise ConfigurationError("n_paths must be >= 1")
    if executor is None:
        executor = default_executor()
    nopt = S.shape[0]
    bytes_per_opt = 8 * n_paths
    slabs = executor.plan(nopt, bytes_per_opt)
    max_opts = max((b - a) for a, b in slabs) if slabs else 1
    # Box-Muller consumes two uniforms per pair of normals; bound the
    # per-slab draw budget for the counter/skip-partitioned kinds.
    streams = make_streams(max(1, len(slabs)), kind=kind, seed=seed,
                           draws_per_worker=4 * max_opts * n_paths + 8)
    price = np.empty(nopt, dtype=DTYPE)
    stderr = np.empty(nopt, dtype=DTYPE)
    executor.map_shm(
        _computed_slab, nopt, bytes_per_item=bytes_per_opt,
        sliced={"S": S, "X": X, "T": T, "price": price, "stderr": stderr},
        writes=("price", "stderr"),
        consts={"rate": rate, "vol": vol, "n_paths": n_paths,
                "method": method, "block": block},
        per_slab=lambda a, b, i: {"stream": streams[i]},
    )
    return MCResult(price=price, stderr=stderr, n_paths=n_paths)


def _asian_slab(arrays: dict, consts: dict, a: int, b: int,
                slab: int) -> tuple:
    """Asian slab task: simulate this slab's GBM chunk from its own
    stream and reduce to the six running moments."""
    take = b - a
    opt, n_fixings = consts["opt"], consts["n_fixings"]
    gen = NormalGenerator(consts["stream"], consts["method"])
    z = gen.normals(take * n_fixings).reshape(take, n_fixings)
    paths = simulate_gbm_paths(opt, take, n_fixings, z)
    arith, geo = _fixing_payoffs(opt, paths)
    return (take, float(arith.sum()), float(geo.sum()),
            float((arith * arith).sum()), float((geo * geo).sum()),
            float((arith * geo).sum()))


def price_asian_parallel(opt: Option, n_paths: int, n_fixings: int,
                         executor: SlabExecutor | None = None,
                         seed: int = 2012, kind: str = "mt2203",
                         method: str = "box_muller",
                         control_variate: bool = True) -> MCResult:
    """Arithmetic-average Asian call over path slabs.

    Each slab simulates its own GBM chunk from its own stream and
    reduces to six running moments (n, Σa, Σg, Σa², Σg², Σag); the full
    ``n_paths × n_fixings`` path matrix is never materialised.  The
    slab moments are combined in slab order, so the estimate is
    bit-identical between serial and threaded backends.
    """
    if opt.kind is not OptionKind.CALL:
        raise ConfigurationError("this pricer handles average-price calls")
    if n_paths < 2 or n_fixings < 1:
        raise ConfigurationError("need n_paths >= 2 and n_fixings >= 1")
    if executor is None:
        executor = default_executor()
    # Per path in flight: normals + log-path row + two payoff scratch.
    bytes_per_path = 8 * n_fixings * 4
    slabs = executor.plan(n_paths, bytes_per_path)
    max_paths = max((b - a) for a, b in slabs) if slabs else 1
    streams = make_streams(max(1, len(slabs)), kind=kind, seed=seed,
                           draws_per_worker=4 * max_paths * n_fixings + 8)
    moments = executor.map_shm(
        _asian_slab, n_paths, bytes_per_item=bytes_per_path,
        consts={"opt": opt, "n_fixings": n_fixings, "method": method},
        per_slab=lambda a, b, i: {"stream": streams[i]},
    )
    n = sa = sg = saa = sgg = sag = 0.0
    for take, a_, g_, aa_, gg_, ag_ in moments:   # fixed slab order
        n += take
        sa += a_
        sg += g_
        saa += aa_
        sgg += gg_
        sag += ag_
    mean_a = sa / n
    mean_g = sg / n
    var_a = max(0.0, saa / n - mean_a * mean_a)        # population
    df = math.exp(-opt.rate * opt.expiry)
    if not control_variate:
        return MCResult(
            price=np.array([df * mean_a], dtype=DTYPE),
            stderr=np.array([df * math.sqrt(var_a / n)], dtype=DTYPE),
            n_paths=n_paths,
        )
    var_g = max(0.0, sgg / n - mean_g * mean_g)        # population
    cov_ag = sag / n - mean_a * mean_g
    # Sample (ddof=1) forms for beta, matching np.cov in the serial tier.
    var_g_s = (sgg - n * mean_g * mean_g) / (n - 1)
    cov_ag_s = (sag - n * mean_a * mean_g) / (n - 1)
    beta = cov_ag_s / var_g_s if var_g_s > 0 else 0.0
    geo_exact = geometric_asian_call(opt.spot, opt.strike, opt.expiry,
                                     opt.rate, opt.vol, n_fixings)
    mean_adj = df * mean_a - beta * (df * mean_g - geo_exact)
    var_adj = max(0.0, df * df * (var_a + beta * beta * var_g
                                  - 2.0 * beta * cov_ag))
    return MCResult(
        price=np.array([mean_adj], dtype=DTYPE),
        stderr=np.array([math.sqrt(var_adj / n)], dtype=DTYPE),
        n_paths=n_paths,
    )

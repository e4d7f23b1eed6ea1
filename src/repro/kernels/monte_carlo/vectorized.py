"""Monte-Carlo European pricing, vectorized (the paper's peak tier).

Sec. IV-D2: the inner path loop autovectorizes — including the ``v0``/
``v1`` reductions — and a ``#pragma unroll`` exposes enough ILP to reach
peak. Only basic optimizations are needed; this module is therefore both
the "basic" and the peak tier, in two operating modes:

* **STREAM mode** — one pre-generated normal array reused for every
  option (Table II row 1);
* **computed-RNG mode** — fresh normals generated per option from an
  injected generator (Table II row 2), where generation dominates.

Evaluation is blocked so the temporaries stay cache-resident.
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...errors import ConfigurationError, DomainError
from .reference import MCResult, _check


def price_stream(S, X, T, rate: float, vol: float, randoms: np.ndarray,
                 block: int = 65536, kind: str = "call") -> MCResult:
    """STREAM mode: vectorized pricing against a shared random array.

    ``kind`` selects the payoff: puts are priced **natively** on the
    same paths rather than derived through put-call parity, so their
    sampling error (and any Greek taken from them) is the put's own.
    """
    S = np.asarray(S, dtype=DTYPE)
    X = np.asarray(X, dtype=DTYPE)
    T = np.asarray(T, dtype=DTYPE)
    _check(S, X, T, rate, vol)
    randoms = np.asarray(randoms, dtype=DTYPE)
    if randoms.ndim != 1 or randoms.size == 0:
        raise ConfigurationError("randoms must be a non-empty 1-D stream")
    if kind not in ("call", "put"):
        raise ConfigurationError("kind must be 'call' or 'put'")
    return _price(S, X, T, rate, vol, randoms.size,
                  lambda n, lo: randoms[lo:lo + n], block, kind)


def price_computed(S, X, T, rate: float, vol: float, n_paths: int,
                   normal_gen, block: int = 65536) -> MCResult:
    """Computed-RNG mode: ``normal_gen.normals(n)`` supplies a fresh
    stream per option (a new set of randoms for each option, as in the
    paper)."""
    S = np.asarray(S, dtype=DTYPE)
    X = np.asarray(X, dtype=DTYPE)
    T = np.asarray(T, dtype=DTYPE)
    _check(S, X, T, rate, vol)
    if n_paths < 1:
        raise ConfigurationError("n_paths must be >= 1")
    return _price(S, X, T, rate, vol, n_paths,
                  lambda n, lo: normal_gen.normals(n), block)


def _price(S, X, T, rate, vol, n_paths, draw, block,
           kind: str = "call") -> MCResult:
    nopt = S.shape[0]
    put = kind == "put"
    price = np.empty(nopt, dtype=DTYPE)
    stderr = np.empty(nopt, dtype=DTYPE)
    for o in range(nopt):
        v_rt_t = np.sqrt(T[o]) * vol
        mu_t = T[o] * (rate - 0.5 * vol * vol)
        v0 = 0.0
        v1 = 0.0
        done = 0
        while done < n_paths:
            take = min(block, n_paths - done)
            z = draw(take, done)
            terminal = S[o] * np.exp(v_rt_t * z + mu_t)
            res = (np.maximum(0.0, X[o] - terminal) if put
                   else np.maximum(0.0, terminal - X[o]))
            v0 += float(res.sum())
            v1 += float((res * res).sum())
            done += take
        df = np.exp(-rate * T[o])
        mean = v0 / n_paths
        var = max(0.0, v1 / n_paths - mean * mean)
        price[o] = df * mean
        stderr[o] = df * np.sqrt(var / n_paths)
    return MCResult(price=price, stderr=stderr, n_paths=n_paths)


def price_antithetic(S, X, T, rate: float, vol: float, n_paths: int,
                     normal_gen, block: int = 65536) -> MCResult:
    """Variance-reduction extension (DESIGN.md §7): each draw is used
    with both signs, halving generator work for the same path count and
    cutting variance for monotone payoffs."""
    if n_paths % 2:
        raise DomainError("antithetic sampling needs an even path count")

    class _Anti:
        def __init__(self, gen):
            self.gen = gen

        def normals(self, n):
            z = self.gen.normals(n // 2)
            return np.concatenate([z, -z])

    return price_computed(S, X, T, rate, vol, n_paths, _Anti(normal_gen),
                          block)

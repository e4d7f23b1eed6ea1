"""Monte-Carlo European option pricing, reference implementation
(paper Listing 5).

Scalar path loop per option. ``mu`` is the risk-neutral log-drift
``r − σ²/2`` (the paper derives it "from the risk-free interest rate and
volatility"), so the discounted payoff mean converges to the
Black-Scholes value with O(P^-1/2) error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ...config import DTYPE
from ...errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class MCResult:
    """Estimates for one batch of options."""

    price: np.ndarray        # discounted mean payoff per option
    stderr: np.ndarray       # standard error of the price estimate
    n_paths: int

    def confidence95(self) -> tuple:
        """95% confidence band (lower, upper) per option."""
        half = 1.96 * self.stderr
        return self.price - half, self.price + half


def _check(S, X, T, rate, vol):
    # A NaN passes every ``<= 0`` test below and would price as NaN.
    if not all(np.all(np.isfinite(v)) for v in (S, X, T, rate, vol)):
        raise DomainError("spots, strikes, expiries, rate and vol must "
                          "be finite")
    if np.any(np.asarray(S) <= 0) or np.any(np.asarray(X) <= 0):
        raise DomainError("spots and strikes must be positive")
    if np.any(np.asarray(T) <= 0) or vol <= 0:
        raise DomainError("expiries and vol must be positive")


def price_reference(S, X, T, rate: float, vol: float,
                    randoms: np.ndarray) -> MCResult:
    """Scalar transliteration of Listing 5 in STREAM mode: one shared
    random array reused for every option.

    ``randoms`` is the pre-generated normal stream (``npath`` values).
    """
    S = np.asarray(S, dtype=DTYPE)
    X = np.asarray(X, dtype=DTYPE)
    T = np.asarray(T, dtype=DTYPE)
    _check(S, X, T, rate, vol)
    randoms = np.asarray(randoms, dtype=DTYPE)
    if randoms.ndim != 1 or randoms.size == 0:
        raise ConfigurationError("randoms must be a non-empty 1-D stream")
    npath = randoms.size
    nopt = S.shape[0]
    price = np.empty(nopt, dtype=DTYPE)
    stderr = np.empty(nopt, dtype=DTYPE)
    for o in range(nopt):
        v_rt_t = math.sqrt(T[o]) * vol
        mu_t = T[o] * (rate - 0.5 * vol * vol)
        v0 = 0.0
        v1 = 0.0
        for p in range(npath):
            res = max(0.0, S[o] * math.exp(v_rt_t * randoms[p] + mu_t) - X[o])
            v0 += res
            v1 += res * res
        df = math.exp(-rate * T[o])
        mean = v0 / npath
        var = max(0.0, v1 / npath - mean * mean)
        price[o] = df * mean
        stderr[o] = df * math.sqrt(var / npath)
    return MCResult(price=price, stderr=stderr, n_paths=npath)

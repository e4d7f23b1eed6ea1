"""Closed-form Black-Scholes pricing and greeks.

The validation oracle for every kernel: the binomial tree, Crank-Nicolson
and Monte-Carlo European results must all converge to these values, and
put-call parity (``C − P = S − X·e^{−rT}``) must hold to rounding.

All functions are vectorized over equal-shaped inputs and use the
tail-accurate :func:`~repro.vmath.cnd.vcnd`.
"""

from __future__ import annotations

import numpy as np

from ..config import DTYPE
from ..errors import DomainError
from ..vmath.cnd import vcnd, vpdf
from .options import validate_inputs


def _d1_d2(S, X, T, r, sig):
    S = np.asarray(S, dtype=DTYPE)
    X = np.asarray(X, dtype=DTYPE)
    T = np.asarray(T, dtype=DTYPE)
    validate_inputs(S, X, T, sig)
    sig_sqrt_t = sig * np.sqrt(T)
    d1 = (np.log(S / X) + (r + 0.5 * sig * sig) * T) / sig_sqrt_t
    d2 = d1 - sig_sqrt_t
    return d1, d2


def bs_call(S, X, T, r, sig) -> np.ndarray:
    """European call value."""
    d1, d2 = _d1_d2(S, X, T, r, sig)
    S = np.asarray(S, dtype=DTYPE)
    X = np.asarray(X, dtype=DTYPE)
    T = np.asarray(T, dtype=DTYPE)
    return S * vcnd(d1) - X * np.exp(-r * T) * vcnd(d2)


def bs_put(S, X, T, r, sig) -> np.ndarray:
    """European put value."""
    d1, d2 = _d1_d2(S, X, T, r, sig)
    S = np.asarray(S, dtype=DTYPE)
    X = np.asarray(X, dtype=DTYPE)
    T = np.asarray(T, dtype=DTYPE)
    return X * np.exp(-r * T) * vcnd(-d2) - S * vcnd(-d1)


def bs_call_put(S, X, T, r, sig) -> tuple:
    """Both values with one pair of CDF evaluations, using put-call
    parity for the put — the arithmetic-sharing trick of the optimized
    kernel (Sec. IV-A2)."""
    d1, d2 = _d1_d2(S, X, T, r, sig)
    S = np.asarray(S, dtype=DTYPE)
    X = np.asarray(X, dtype=DTYPE)
    T = np.asarray(T, dtype=DTYPE)
    xexp = X * np.exp(-r * T)
    call = S * vcnd(d1) - xexp * vcnd(d2)
    put = call - S + xexp
    return call, put


def parity_residual(call, put, S, X, T, r) -> np.ndarray:
    """``C − P − (S − X e^{−rT})`` — zero in exact arithmetic."""
    S = np.asarray(S, dtype=DTYPE)
    X = np.asarray(X, dtype=DTYPE)
    T = np.asarray(T, dtype=DTYPE)
    return (np.asarray(call, dtype=DTYPE) - np.asarray(put, dtype=DTYPE)
            - (S - X * np.exp(-r * T)))


# ----------------------------------------------------------------------
# Greeks (used by the examples' risk reports and extra tests)
# ----------------------------------------------------------------------

def bs_delta(S, X, T, r, sig, call: bool = True) -> np.ndarray:
    d1, _ = _d1_d2(S, X, T, r, sig)
    return vcnd(d1) if call else vcnd(d1) - 1.0


def bs_gamma(S, X, T, r, sig) -> np.ndarray:
    d1, _ = _d1_d2(S, X, T, r, sig)
    S = np.asarray(S, dtype=DTYPE)
    T = np.asarray(T, dtype=DTYPE)
    return vpdf(d1) / (S * sig * np.sqrt(T))


def bs_vega(S, X, T, r, sig) -> np.ndarray:
    d1, _ = _d1_d2(S, X, T, r, sig)
    S = np.asarray(S, dtype=DTYPE)
    T = np.asarray(T, dtype=DTYPE)
    return S * vpdf(d1) * np.sqrt(T)


def bs_theta(S, X, T, r, sig, call: bool = True) -> np.ndarray:
    d1, d2 = _d1_d2(S, X, T, r, sig)
    S = np.asarray(S, dtype=DTYPE)
    X = np.asarray(X, dtype=DTYPE)
    T = np.asarray(T, dtype=DTYPE)
    decay = -S * vpdf(d1) * sig / (2.0 * np.sqrt(T))
    if call:
        return decay - r * X * np.exp(-r * T) * vcnd(d2)
    return decay + r * X * np.exp(-r * T) * vcnd(-d2)


def bs_rho(S, X, T, r, sig, call: bool = True) -> np.ndarray:
    _, d2 = _d1_d2(S, X, T, r, sig)
    X = np.asarray(X, dtype=DTYPE)
    T = np.asarray(T, dtype=DTYPE)
    if call:
        return X * T * np.exp(-r * T) * vcnd(d2)
    return -X * T * np.exp(-r * T) * vcnd(-d2)

"""From-scratch vectorized double-precision ``exp``.

The classic SVML-style scheme: reduce ``x = n·ln2 + r`` with |r| ≤ ln2/2
(the reduction uses a two-term split of ln2 to keep ``r`` accurate to the
last bit), evaluate ``e^r`` with a degree-13 Taylor/minimax polynomial,
and reconstruct with an exact power-of-two scale. Max relative error vs
the correctly-rounded result is a few ulp (validated against NumPy in the
test suite).
"""

from __future__ import annotations

import math as _math

import numpy as np

from ..config import DTYPE
from .poly import horner

#: ln2 split into a high part exactly representable with trailing zeros
#: and the low-order remainder (Cody–Waite reduction).
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_LOG2E = 1.44269504088896340736e+00

#: 1/k! for k = 0..13 — degree-13 Taylor of e^r; for |r| <= 0.3466 the
#: truncation error is below 2^-60, i.e. under double rounding error.
_COEFFS = tuple(1.0 / _math.factorial(k) for k in range(14))

#: Overflow / underflow thresholds for IEEE double exp.
_MAX_X = 709.782712893384
_MIN_X = -745.133219101941


def vexp(x, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized ``e**x`` for double arrays (from-scratch implementation).

    Handles overflow to ``inf`` and underflow to 0 like the IEEE
    function; NaN propagates. ``out`` receives the result in place
    (aliasing ``x`` is allowed — the input is consumed before the final
    write).
    """
    x = np.asarray(x, dtype=DTYPE)
    with np.errstate(invalid="ignore", over="ignore"):
        n = np.rint(np.clip(x, _MIN_X - 1, _MAX_X + 1) * _LOG2E)
        # Two-step Cody–Waite reduction keeps r's error below 1 ulp of r.
        r = (x - n * _LN2_HI) - n * _LN2_LO
        p = horner(r, _COEFFS)
        # Exact 2**n scaling (n is integral, within ldexp range after clip).
        res = np.ldexp(p, n.astype(np.int64))
    res = np.where(x > _MAX_X, np.inf, res)
    res = np.where(x < _MIN_X, 0.0, res)
    res = np.where(np.isnan(x), np.nan, res)
    if out is not None:
        np.copyto(out, res)
        return out
    return res


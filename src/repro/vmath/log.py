"""From-scratch vectorized double-precision natural logarithm.

Decomposes ``x = m · 2^e`` with ``m`` normalised into
``[√½, √2)``, then evaluates ``log m = 2·atanh(t)`` with
``t = (m−1)/(m+1)`` — ``|t| ≤ 0.1716``, where the odd atanh series
truncated at t²¹ is accurate below double rounding. Reconstruction uses
the same split-ln2 constants as :mod:`repro.vmath.exp`.
"""

from __future__ import annotations

import numpy as np

from ..config import DTYPE
from .exp import _LN2_HI, _LN2_LO
from .poly import horner

#: Coefficients of atanh(t)/t in t²: 1, 1/3, 1/5, ... 1/21.
_ATANH_COEFFS = tuple(1.0 / (2 * k + 1) for k in range(11))


def vlog(x, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized ``ln(x)`` for double arrays (from-scratch).

    Domain behaviour mirrors IEEE ``log``: 0 → −inf, negative → NaN,
    inf → inf, NaN propagates. ``out`` receives the result in place
    (aliasing ``x`` is allowed).
    """
    x = np.asarray(x, dtype=DTYPE)
    with np.errstate(divide="ignore", invalid="ignore"):
        m, e = np.frexp(x)  # x = m * 2**e, m in [0.5, 1)
        # Renormalise m into [sqrt(0.5), sqrt(2)) so |t| is small.
        small = m < np.sqrt(0.5)
        m = np.where(small, 2.0 * m, m)
        e = np.where(small, e - 1, e)
        t = (m - 1.0) / (m + 1.0)
        t2 = t * t
        logm = 2.0 * t * horner(t2, _ATANH_COEFFS)
        ef = e.astype(DTYPE)
        res = (ef * _LN2_HI + logm) + ef * _LN2_LO
        res = np.where(x == 0.0, -np.inf, res)
        res = np.where(x < 0.0, np.nan, res)
        res = np.where(np.isinf(x) & (x > 0), np.inf, res)
        res = np.where(np.isnan(x), np.nan, res)
    if out is not None:
        np.copyto(out, res)
        return out
    return res


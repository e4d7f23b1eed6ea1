"""Black-Scholes *basic* tier: compiler-style vectorization over AOS.

The analogue of adding ``#pragma simd`` to Listing 1: the loop body is
vectorized (NumPy expressions) but the data stays in AOS, so every field
access is a strided view — the Python analogue of the gather/scatter the
compiler must emit. Math is still the reference four-``cnd`` form with
true divide and sqrt.
"""

from __future__ import annotations

import numpy as np

from ...errors import LayoutError
from ...pricing.options import OptionBatch
from ...vmath.cnd import vcnd


def price_basic(batch: OptionBatch) -> None:
    """Vectorized pricing straight over the AOS strided views, in place."""
    if batch.layout != "aos":
        raise LayoutError(
            f"basic tier expects the AOS reference layout, got {batch.layout!r}"
        )
    r = batch.rate
    sig = batch.vol
    sig22 = sig * sig / 2.0
    # Strided views — the gather/scatter pattern the compiler vectorizes.
    S = batch.S
    X = batch.X
    T = batch.T
    qlog = np.log(S / X)
    denom = 1.0 / (sig * np.sqrt(T))
    d1 = (qlog + (r + sig22) * T) * denom
    d2 = (qlog + (r - sig22) * T) * denom
    xexp = X * np.exp(-r * T)
    # Floored: deep out of the money the difference rounds below zero.
    np.maximum(S * vcnd(d1) - xexp * vcnd(d2), 0.0, out=batch.call)
    np.maximum(xexp * vcnd(-d2) - S * vcnd(-d1), 0.0, out=batch.put)

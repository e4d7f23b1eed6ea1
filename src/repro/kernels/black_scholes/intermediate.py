"""Black-Scholes *intermediate* tier: the AOS→SOA transform.

Sec. IV-A3's key optimization: transpose the batch into
structure-of-arrays so every vector access is a contiguous aligned load
or streaming store. The math is unchanged from the basic tier (four
``cnd``), isolating the layout effect — exactly how the paper's stacked
bars attribute the gain.
"""

from __future__ import annotations

import numpy as np

from ...errors import LayoutError
from ...pricing.options import OptionBatch
from ...simd.layout import aos_to_soa
from ...vmath.cnd import vcnd


def price_intermediate(batch: OptionBatch) -> None:
    """AOS→SOA convert, price on contiguous arrays, write results back.

    Accepts an AOS batch (does the transform, charging its cost to this
    tier, as the paper does) or an SOA batch (prices directly).
    """
    if batch.layout == "aos":
        soa = aos_to_soa(batch.batch)
        _price_soa(soa, batch.rate, batch.vol)
        # Scatter only the outputs back into the caller's AOS layout.
        batch.batch.set("call", soa.get("call"))
        batch.batch.set("put", soa.get("put"))
    elif batch.layout == "soa":
        _price_soa(batch.batch, batch.rate, batch.vol)
    else:
        raise LayoutError(f"unsupported layout {batch.layout!r}")


def _price_soa(soa, r: float, sig: float) -> None:
    S = soa.get("S")
    X = soa.get("X")
    T = soa.get("T")
    sig22 = sig * sig / 2.0
    qlog = np.log(S / X)
    denom = 1.0 / (sig * np.sqrt(T))
    d1 = (qlog + (r + sig22) * T) * denom
    d2 = (qlog + (r - sig22) * T) * denom
    xexp = X * np.exp(-r * T)
    # Floored: deep out of the money the difference rounds below zero.
    soa.set("call", np.maximum(S * vcnd(d1) - xexp * vcnd(d2), 0.0))
    soa.set("put", np.maximum(xexp * vcnd(-d2) - S * vcnd(-d1), 0.0))

"""Black-Scholes *advanced* tier: math restructuring + library choice.

The remaining Sec. IV-A2 optimizations on top of SOA:

* **one CDF pass** — the paper substitutes ``cnd(x) = (1 + erf(x/√2))/2``
  so two ``erf`` evaluations replace four ``cnd``; here N(d1) and N(d2)
  are one ``lib.cnd`` call over both (the SVML facade evaluates it
  through that erf identity, the NumPy one through the table-driven
  :func:`~repro.vmath.ndtr.ndtr`).
* **call/put parity** — the put comes from the call with three flops
  (``P = C − S + X·e^{−rT}``), halving the CDF work again.
* **library choice** — SVML-style block-fused evaluation (cache-resident
  temporaries) vs VML-style whole-array passes; injected through
  :mod:`repro.vmath.libs` so the trade-off is measurable functionally and
  in the model.
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...errors import LayoutError
from ...pricing.options import OptionBatch
from ...simd.layout import aos_to_soa
from ...vmath.libs import VectorMathLib, get_lib


def price_advanced(batch: OptionBatch, lib: VectorMathLib | str = "numpy",
                   block: int = 4096) -> None:
    """Price in place with parity+erf math, block by block.

    ``block`` bounds the temporary working set (the SVML-style cache
    blocking); ``lib`` selects the math implementation.
    """
    if isinstance(lib, str):
        lib = get_lib(lib)
    if batch.layout == "aos":
        soa = aos_to_soa(batch.batch)
        _price_blocked(soa, batch.rate, batch.vol, lib, block)
        batch.batch.set("call", soa.get("call"))
        batch.batch.set("put", soa.get("put"))
    elif batch.layout == "soa":
        _price_blocked(batch.batch, batch.rate, batch.vol, lib, block)
    else:
        raise LayoutError(f"unsupported layout {batch.layout!r}")


# The SVML-style tier allocates block-sized temporaries on purpose:
# `block` caps the working set at cache size, and the lib-vs-out=
# trade-off is exactly what this tier exists to measure (Sec. IV-A2).
# repro-lint: disable=R001
def _price_blocked(soa, r: float, sig: float, lib: VectorMathLib,
                   block: int) -> None:
    S_all = soa.get("S")
    X_all = soa.get("X")
    T_all = soa.get("T")
    call_all = soa.get("call")
    put_all = soa.get("put")
    sig22 = sig * sig / 2.0
    n = S_all.shape[0]
    for start in range(0, n, block):
        stop = min(start + block, n)
        S = S_all[start:stop]
        X = X_all[start:stop]
        T = T_all[start:stop]
        qlog = lib.log(S / X)
        # 1/(sig*sqrt(T)) via rsqrt, as peak-tier code avoids divide.
        denom = (1.0 / sig) / np.sqrt(T)
        d1 = (qlog + (r + sig22) * T) * denom
        d2 = (qlog + (r - sig22) * T) * denom
        xexp = X * lib.exp(np.asarray(-r * T, dtype=DTYPE))
        nd1, nd2 = lib.cnd(np.stack((d1, d2)))   # one N(x) pass
        call = S * nd1 - xexp * nd2
        np.maximum(call, 0.0, out=call_all[start:stop])
        # put-call parity; it cancels for deep OTM puts, hence the floor
        np.maximum(call - S + xexp, 0.0, out=put_all[start:stop])

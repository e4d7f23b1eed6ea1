"""Black-Scholes *advanced* tier: math restructuring on top of SOA.

The remaining Sec. IV-A2 optimizations:

* **one CDF pass** — the paper substitutes ``cnd(x) = (1 + erf(x/√2))/2``
  so two ``erf`` evaluations replace four ``cnd``; here N(d1) and N(d2)
  are one call of the table-driven :func:`~repro.vmath.ndtr.ndtr` over
  both.
* **call/put parity** — the put comes from the call with three flops
  (``P = C − S + X·e^{−rT}``), halving the CDF work again.
* **cache blocking** — the batch is walked in ``block``-option pieces so
  the temporaries stay cache-resident.  The paper's SVML-vs-VML library
  choice (Sec. IV-A3) lives in the model (:mod:`.model`), not here.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigurationError, LayoutError
from ...pricing.options import OptionBatch
from ...simd.layout import aos_to_soa
from ...vmath.ndtr import ndtr


def price_advanced(batch: OptionBatch, block: int = 4096) -> None:
    """Price in place with parity+erf math, block by block.

    ``block`` (at least 1) bounds the temporary working set: the
    SVML-style cache blocking.
    """
    if block < 1:
        raise ConfigurationError(f"block must be >= 1, got {block}")
    if batch.layout == "aos":
        soa = aos_to_soa(batch.batch)
        _price_blocked(soa, batch.rate, batch.vol, block)
        batch.batch.set("call", soa.get("call"))
        batch.batch.set("put", soa.get("put"))
    elif batch.layout == "soa":
        _price_blocked(batch.batch, batch.rate, batch.vol, block)
    else:
        raise LayoutError(f"unsupported layout {batch.layout!r}")


# The SVML-style tier allocates block-sized temporaries on purpose:
# `block` caps the working set at cache size, and the temporaries-vs-out=
# trade-off is exactly what this tier exists to measure (Sec. IV-A2).
# repro-lint: disable=R001
def _price_blocked(soa, r: float, sig: float, block: int) -> None:
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
        qlog = np.log(S / X)
        # 1/(sig*sqrt(T)) via rsqrt, as peak-tier code avoids divide.
        denom = (1.0 / sig) / np.sqrt(T)
        d1 = (qlog + (r + sig22) * T) * denom
        d2 = (qlog + (r - sig22) * T) * denom
        xexp = X * np.exp(-r * T)
        nd1, nd2 = ndtr(np.stack((d1, d2)))   # one N(x) pass
        call = S * nd1 - xexp * nd2
        np.maximum(call, 0.0, out=call_all[start:stop])
        # put-call parity; it cancels for deep OTM puts, hence the floor
        np.maximum(call - S + xexp, 0.0, out=put_all[start:stop])

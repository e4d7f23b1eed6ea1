"""Black-Scholes reference implementation (paper Listing 1).

A faithful scalar transliteration: one Python loop over options stored in
AOS layout, four full ``cnd`` evaluations per option, no call/put parity
sharing. This is the semantics baseline every optimized tier is checked
against, and the workload whose per-option operation mix the reference
tier of the performance model encodes.
"""

from __future__ import annotations

import math

from ...errors import LayoutError
from ...pricing.options import OptionBatch


def _cnd_scalar(x: float) -> float:
    """Scalar cumulative normal via erfc (tail-accurate), as a C
    reference implementation would call from libm."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def price_reference(batch: OptionBatch) -> None:
    """Price every option in ``batch`` in place (fills ``call``/``put``).

    Mirrors Listing 1 line by line: ``qlog``, ``denom``, ``d1``, ``d2``,
    ``xexp``, then call and put from four ``cnd`` evaluations.
    """
    if batch.layout != "aos":
        raise LayoutError(
            "the reference kernel prices the paper's AOS layout; got "
            f"{batch.layout!r} (use layout='aos')"
        )
    r = batch.rate
    sig = batch.vol
    sig22 = sig * sig / 2.0
    aos = batch.batch
    for i in range(batch.n):
        opt = aos.record(i)
        qlog = math.log(opt["S"] / opt["X"])
        denom = 1.0 / (sig * math.sqrt(opt["T"]))
        d1 = (qlog + (r + sig22) * opt["T"]) * denom
        d2 = (qlog + (r - sig22) * opt["T"]) * denom
        xexp = opt["X"] * math.exp(-r * opt["T"])
        # NOTE: Listing 1 as printed has the call sign flipped
        # (-xexp*cnd(d2) - S*cnd(d1)); the standard (and clearly intended)
        # closed form is S*cnd(d1) - xexp*cnd(d2), which we use.
        call = opt["S"] * _cnd_scalar(d1) - xexp * _cnd_scalar(d2)
        put = xexp * _cnd_scalar(-d2) - opt["S"] * _cnd_scalar(-d1)
        base = i * aos.stride
        # Deep OTM both terms are subnormal and can round below zero.
        aos.data[base + 3] = max(call, 0.0)
        aos.data[base + 4] = max(put, 0.0)

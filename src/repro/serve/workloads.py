"""Which registered tiers the gateway may coalesce, and why.

Dynamic batching is only *correct* for tiers whose per-option results
are *elementwise* — a pure function of that option's own
``(S, X, T, rate, vol)``, independent of batch width, slab partition
and neighbours.  The Black-Scholes price, fused-Greeks and
scenario-grid tiers qualify: every value they emit is computed by
length-invariant ufunc sweeps, so coalescing ``B`` requests into one
slab yields bit-identical numbers to pricing each alone (the loadtest's
digest gate).

Tiers that do **not** qualify are refused loudly rather than silently
mis-priced:

* RNG-driven kernels (Monte Carlo, Brownian bridge, the RNG tier
  itself): per-slab jump-ahead streams mean a path's randoms depend on
  the batch geometry, so a coalesced result differs bit-for-bit from a
  solo run.
* ``black_scholes/implied``: its synthetic inverse problem derives the
  target-vol surface from the *whole batch width*
  (``linspace(0.6, 1.4, n)``), so it is not a per-request workload.
* Lattice/PDE kernels (binomial, Crank-Nicolson): per-*option* work
  units with per-option step grids — batchable in principle, but their
  payloads are option lists, not the contiguous S/X/T slabs this
  batcher packs.  Future adapters can add them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import registry
from ..errors import GatewayError
from ..pricing.options import OptionBatch
from ..results import as_result_slab
from .request import GatewayResult, PricingRequest


@dataclass(frozen=True)
class TierAdapter:
    """How the gateway drives one batchable ``(kernel, tier)``.

    ``outputs`` is the tier's declared schema (scatter order).  Every
    adapter's dispatch reads the staged batch arrays directly every
    run, so packing in place is all a batch needs; ``needs_rebind``
    is always ``False`` and only the benchmark's replay still reads it.
    """

    kernel: str
    tier: str
    outputs: tuple
    needs_rebind: bool = False


_ADAPTERS = {
    ("black_scholes", "parallel"): TierAdapter(
        "black_scholes", "parallel", outputs=("price",)),
    ("black_scholes", "greeks"): TierAdapter(
        "black_scholes", "greeks",
        outputs=("price", "delta", "gamma", "vega", "theta", "rho")),
    ("black_scholes", "scenario"): TierAdapter(
        "black_scholes", "scenario", outputs=("grid",)),
}


def batchable_tiers() -> tuple:
    """Every ``(kernel, tier)`` the gateway accepts."""
    return tuple(sorted(_ADAPTERS))


def adapter_for(kernel: str, tier: str) -> TierAdapter:
    try:
        return _ADAPTERS[(kernel, tier)]
    except KeyError:
        raise GatewayError(
            f"{kernel}/{tier} is not batchable: the gateway only "
            f"coalesces elementwise tiers whose per-option results are "
            f"independent of batch geometry (have: "
            f"{', '.join('/'.join(k) for k in batchable_tiers())})"
        ) from None


def make_staging_payload(signature: tuple, width: int) -> dict:
    """A registry payload whose SOA arrays are the packing target.

    Initialized so a staging that was never packed still prices valid
    numbers: S/X/T to ones, the per-option rate/vol columns to the
    signature's ``(rate, vol)`` when it carries them, else ones too.
    The risk tiers only read ``payload["soa"]``: no AOS half.
    """
    rate, vol = signature[2:] or (1.0, 1.0)
    ones = np.ones(width)
    return {"soa": OptionBatch(ones, ones.copy(), ones.copy(),
                               rate=np.broadcast_to(rate, width),
                               vol=np.broadcast_to(vol, width),
                               layout="soa")}


def reference_result(request: PricingRequest, executor) -> GatewayResult:
    """The request priced *alone* through the registered ``fn`` — the
    tier's one-shot (its own compile, one run, retired) — the serial
    reference every scattered result must digest-match.

    Runs at the request's own width (no canonical bucketing, no plan
    cache, no rebind), so a match proves the whole gateway pipeline —
    packing, canonical padding, fused dispatch, scatter — preserved
    per-option values exactly.  That the kernel itself is right is the
    reference ladder's job (every slab tier against its kernel's
    reference tier), not this oracle's.
    """
    adapter = adapter_for(request.kernel, request.tier)
    impl = registry.impl(request.kernel, request.tier, executor.backend)
    payload = {"soa": OptionBatch(request.S.copy(), request.X.copy(),
                                  request.T.copy(), rate=request.rate,
                                  vol=request.vol, layout="soa")}
    slab = as_result_slab(impl.fn(payload, executor), impl.outputs)
    n = request.n
    outputs = {}
    for name in adapter.outputs:
        vec = np.asarray(slab[name])
        k = vec.shape[0] // n
        outputs[name] = vec.reshape(k, n) if k > 1 else vec
    return GatewayResult(outputs, n)


def serial_reference(request: PricingRequest) -> GatewayResult:
    """:func:`reference_result` on a private serial executor (the
    loadtest's digest oracle)."""
    from ..parallel.slab import SlabExecutor
    with SlabExecutor("serial") as ex:
        return reference_result(request, ex)

"""Black-Scholes fused Greeks tier: price + full Greeks in one pass.

The risk-workload refinement of the parallel tier
(:mod:`.parallel`): one sweep over each LLC-sized slab fills **twelve**
write vectors — call/put price, delta, gamma, vega, theta, rho — while
touching the shared intermediates (``d1``, ``d2``, ``N(d1)``,
``N(d2)``, ``pdf(d1)``, the discount factor) exactly once.  Next to a
price-only pass the Greeks come almost free: the expensive transcendentals
(`log`, `exp`, one N(x) pass over d1 and d2) are already paid for by the
price, and every Greek is a handful of multiplies on top — the
observation the streaming-Greeks literature (arXiv:2212.13977) builds
its FPGA pipelines around.

Puts are computed **natively** (``N(-d1)``/``N(-d2)`` complements),
not via put-call parity at report time: parity reproduces the put
*price* but silently borrows the call's theta/rho, which are wrong for
the put.  All twelve outputs are disjoint views into one contiguous
backing vector, so the multi-output dispatch is still one slab plan
and the stacked result digests/compares as a single array.
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...parallel.slab import SlabExecutor
from ...plan import one_shot
from ...pricing.options import OptionBatch
from ...results import GREEK_OUTPUTS, ResultSlab
from ...simd.layout import aos_to_soa
from ...vmath.ndtr import ndtr
from .parallel import rate_vol_operands

_INV_SQRT_2PI = 0.3989422804014327

#: Write-array names, in backing order: the call and put vector of
#: each logical output are adjacent so each output is one contiguous
#: ``2n`` view of the backing.
GREEK_WRITES = ("price_c", "price_p", "delta_c", "delta_p",
                "gamma_c", "gamma_p", "vega_c", "vega_p",
                "theta_c", "theta_p", "rho_c", "rho_p")

#: Multi-output schema: logical output -> the write arrays carrying it.
GREEK_SCHEMA = {
    "price": ("price_c", "price_p"),
    "delta": ("delta_c", "delta_p"),
    "gamma": ("gamma_c", "gamma_p"),
    "vega": ("vega_c", "vega_p"),
    "theta": ("theta_c", "theta_p"),
    "rho": ("rho_c", "rho_p"),
}

#: Doubles in flight per option: S/X/T in, 12 outputs, 5 scratch.
GREEKS_BYTES_PER_OPTION = 8 * 20


def _greeks_slab(S, X, T, r, sig, cols: bool, out: dict,
                 scratch=None) -> None:
    """Fused price+Greeks for one slab, writing the 12 vectors of
    ``out`` in place.

    Five scratch rows cover every intermediate (``scratch`` is a
    ``(5, len(S))`` block on the planned path; allocated here
    otherwise); d1 and d2 are adjacent rows, so N(d1) and N(d2) are one
    ``ndtr`` call.  Gamma and vega are call/put-identical and stored
    twice so every output keeps the uniform ``[call | put]`` layout.
    ``r``/``sig`` are floats, or with ``cols`` per-option
    columns (the fused scalar expressions become column passes in the
    same IEEE grouping — bit-identical either way).
    """
    if scratch is None:
        scratch = np.empty((5, S.shape[0]), dtype=DTYPE)
    sqt, d1, d2, disc, pdf = scratch
    delta_c, delta_p = out["delta_c"], out["delta_p"]
    np.sqrt(T, out=sqt)                    # sqt = √T
    np.divide(S, X, out=d1)
    np.log(d1, out=d1)                     # d1 = ln(S/X)
    if cols:
        np.multiply(sig, sig, out=d2)
        d2 /= 2.0
        d2 += r
        d2 *= T
    else:
        np.multiply(T, r + sig * sig / 2.0, out=d2)
    d1 += d2                               # d1 = ln(S/X) + (r+σ²/2)T
    np.multiply(sqt, sig, out=d2)          # d2 = σ√T
    d1 /= d2                               # d1 done
    np.subtract(d1, d2, out=d2)            # d2 = d1 − σ√T
    if cols:
        np.negative(r, out=disc)
        disc *= T
    else:
        np.multiply(T, -r, out=disc)
    np.exp(disc, out=disc)
    disc *= X                              # disc = X·e^{−rT}
    np.multiply(d1, d1, out=pdf)
    pdf *= -0.5
    np.exp(pdf, out=pdf)
    pdf *= _INV_SQRT_2PI                   # pdf = φ(d1)
    ndtr(scratch[1:3], out=scratch[1:3])   # d1 = N(d1), d2 = N(d2)
    np.copyto(delta_c, d1)                 # delta_c = N(d1)
    np.subtract(d1, 1.0, out=delta_p)      # delta_p = N(d1) − 1 = −N(−d1)
    gamma_c, gamma_p = out["gamma_c"], out["gamma_p"]
    np.multiply(S, sig, out=gamma_c)
    gamma_c *= sqt                         # S·σ·√T
    np.divide(pdf, gamma_c, out=gamma_c)   # Γ = φ(d1)/(S·σ·√T)
    np.copyto(gamma_p, gamma_c)            # put gamma = call gamma
    vega_c, vega_p = out["vega_c"], out["vega_p"]
    np.multiply(S, pdf, out=vega_c)
    vega_c *= sqt                          # ν = S·φ(d1)·√T
    np.copyto(vega_p, vega_c)              # put vega = call vega
    rho_c, rho_p = out["rho_c"], out["rho_p"]
    np.multiply(disc, d2, out=rho_c)       # rho_c holds disc·N(d2)
    np.subtract(disc, rho_c, out=rho_p)    # rho_p holds disc·N(−d2)
    price_c, price_p = out["price_c"], out["price_p"]
    np.multiply(S, delta_c, out=price_c)
    price_c -= rho_c                       # C = S·N(d1) − disc·N(d2)
    np.multiply(S, delta_p, out=price_p)
    price_p += rho_p                       # P = disc·N(−d2) − S·N(−d1)
    theta_c, theta_p = out["theta_c"], out["theta_p"]
    np.divide(vega_c, T, out=theta_c)
    if cols:
        np.multiply(sig, -0.5, out=d2)     # d2 is dead once rho holds N(d2)
        theta_c *= d2
    else:
        theta_c *= -0.5 * sig              # −S·φ(d1)·σ/(2√T)
    np.multiply(rho_p, r, out=theta_p)
    theta_p += theta_c                     # θ_put = … + r·disc·N(−d2)
    np.multiply(rho_c, r, out=pdf)         # pdf reused: r·disc·N(d2)
    theta_c -= pdf                         # θ_call = … − r·disc·N(d2)
    rho_c *= T                             # ρ_call = T·disc·N(d2)
    rho_p *= T
    np.negative(rho_p, out=rho_p)          # ρ_put = −T·disc·N(−d2)


def _greeks_slab_task(arrays: dict, consts: dict, a: int, b: int,
                      slab: int) -> None:
    """Slab task in the backend-portable shape (module-level so the
    process backend can pickle it by reference)."""
    cols = consts["cols"]
    params = arrays if cols else consts
    _greeks_slab(arrays["S"], arrays["X"], arrays["T"],
                 params["r"], params["sig"], cols,
                 {name: arrays[name] for name in GREEK_WRITES},
                 consts.get("scratch"))


def _backing_views(backing: np.ndarray, n: int, names: tuple) -> dict:
    """The ``n``-long write views of one backing vector, in order."""
    return {name: backing[i * n:(i + 1) * n]
            for i, name in enumerate(names)}


def _result_slab(backing: np.ndarray, n: int) -> ResultSlab:
    """The logical multi-output view of one backing vector: each of
    the six outputs is the contiguous ``2n`` ``[call | put]`` span."""
    return ResultSlab(
        {name: backing[2 * i * n:2 * (i + 1) * n]
         for i, name in enumerate(GREEK_OUTPUTS)},
        backing=backing)


def greeks_parallel(batch: OptionBatch,
                    executor: SlabExecutor | None = None) -> ResultSlab:
    """Price the batch and fill every Greek over zero-copy slabs: the
    one-shot of :func:`compile_greeks_parallel`.

    Returns a :class:`~repro.results.ResultSlab` with the six
    :data:`~repro.results.GREEK_OUTPUTS`, each a ``2n`` ``[call | put]``
    vector.  Bit-identical across backends (every output element is a
    function of its own option alone, so the slab split cannot move it).
    """
    return one_shot(compile_greeks_parallel, batch, executor=executor)


def compile_greeks_parallel(batch: OptionBatch, executor: SlabExecutor,
                            arena):
    """Plan-compile the fused Greeks tier for repeated same-shape calls.

    Reserves the ``12n`` backing vector and one ``(5, slab_len)``
    scratch block per slab in ``arena``; the returned runner replays
    the compiled dispatch and hands back the *same*
    :class:`~repro.results.ResultSlab` object every call — zero
    hot-path array allocations (the out-of-process backends skip the
    scratch handoff, as the price planner does).
    """
    soa = batch.batch if batch.layout == "soa" else aos_to_soa(batch.batch)
    S, X, T = soa.get("S"), soa.get("X"), soa.get("T")
    n = S.shape[0]
    backing = arena.reserve("result", 12 * n)
    views = _backing_views(backing, n, GREEK_WRITES)
    per_slab = None
    if not executor.out_of_process:
        def per_slab(a, b, i):
            return {"scratch": arena.reserve(f"scratch{i}", (5, b - a))}
    columns, params = rate_vol_operands(batch)
    dispatch = arena.adopt(executor.compile_lanes(
        _greeks_slab_task, n,
        bytes_per_item=GREEKS_BYTES_PER_OPTION,
        sliced={"S": S, "X": X, "T": T, **views, **columns},
        writes=GREEK_WRITES,
        outputs=GREEK_SCHEMA,
        consts=params,
        per_slab=per_slab, tag="bsg"))
    slab = _result_slab(backing, n)
    price = slab["price"]

    def run() -> ResultSlab:
        dispatch.run()
        np.maximum(price, 0.0, out=price)  # rounding never prices below 0
        return slab

    return run

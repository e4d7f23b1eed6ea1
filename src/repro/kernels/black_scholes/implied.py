"""Vectorized-Newton implied volatility: the calibration solver and its
slab tier.

The inverse problem of the pricing ladder: given observed option
prices, recover the volatility the market implies — the calibration
primitive the paper's intro motivates (Sec. I).  One solver body,
:func:`_implied_slab`, runs a **fixed-iteration safeguarded Newton**
over whole vectors with every intermediate in ``out=`` scratch — the
shape of Listing 1's fused loops applied to root finding (each sweep's
N(d1), N(d2) are one ``ndtr`` call).  A fixed iteration count (no
per-element early exit) keeps the arithmetic a pure function of the
inputs, so results are bit-identical across serial, thread, process
and daemon backends regardless of slab boundaries.

Two entries run that body: :func:`implied_vol`, the caller-facing
solver (calls and puts, no-arbitrage and residual checks), and the
registered ``implied`` tier.  The tier's workload derives a
deterministic per-option vol surface from the shared batch
(``vol · (0.6 … 1.4)``), prices it with the same fused math, and then
inverts those prices over slabs — so the round trip
``price → IV → price`` closes to solver precision by construction and
the agreement test has an exact target.
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...errors import ConvergenceError, DomainError
from ...parallel.slab import SlabExecutor
from ...pricing.options import validate_inputs
from ...results import ResultSlab
from ...simd.layout import aos_to_soa
from ...vmath.ndtr import ndtr

#: Search band for the volatility: every Newton iterate is clipped
#: into it.
VOL_LO = 1e-4
VOL_HI = 5.0

#: Largest call-price residual :func:`implied_vol` accepts from the
#: solved σ.
RESIDUAL_TOL = 1e-10

#: Slack on the static no-arbitrage band before a price is rejected.
_BAND_SLACK = 1e-12

_INV_SQRT_2PI = 0.3989422804014327

#: Newton sweeps per solve.  Seeded at the Manaster–Koehler inflection
#: point the iteration is monotone and quadratic, putting every option
#: at solver precision well inside this; fixed (not adaptive) so every
#: backend does identical arithmetic.
NEWTON_ITERS = 24

#: Vega floor for the safeguarded step: a near-zero vega (deep ITM/OTM)
#: would otherwise launch the iterate out of the bracket.
_VEGA_FLOOR = 1e-12

#: Doubles per option: price/S/X/T in, iv out, 6 scratch.
IMPLIED_BYTES_PER_OPTION = 8 * 11


def call_price_sig(S, X, T, r: float, sig, out, scratch=None) -> None:
    """Fused European call price with a **per-element** σ vector,
    written into ``out`` (three scratch rows, the first two d1/d2 for
    one stacked ``ndtr`` call): the implied tier's
    target generation, and the operation sequence the scenario tier's
    broadcast body reproduces cell for cell."""
    if scratch is None:
        scratch = np.empty((3, np.shape(S)[0]), dtype=DTYPE)
    a, b, c = scratch
    np.multiply(sig, sig, out=c)
    c *= 0.5
    c += r
    c *= T                                 # c = (r+σ²/2)T
    np.divide(S, X, out=a)
    np.log(a, out=a)
    a += c                                 # a = ln(S/X) + (r+σ²/2)T
    np.sqrt(T, out=b)
    b *= sig                               # b = σ√T
    a /= b                                 # a = d1
    np.subtract(a, b, out=b)               # b = d2
    np.multiply(T, -r, out=c)
    np.exp(c, out=c)
    c *= X                                 # c = X·e^{−rT}
    ndtr(scratch[:2], out=scratch[:2])     # a = N(d1), b = N(d2)
    b *= c
    np.multiply(S, a, out=out)
    out -= b                               # C = S·N(d1) − X·e^{−rT}·N(d2)


def _implied_slab(price, S, X, T, r: float, iv, scratch=None) -> None:
    """Fixed-iteration vectorized Newton, writing ``iv`` in place."""
    if scratch is None:
        scratch = np.empty((6, S.shape[0]), dtype=DTYPE)
    lsx, sqt, disc, d1, d2, pdf = scratch
    d12 = scratch[3:5]                     # d1, d2 adjacent: one cnd call
    np.divide(S, X, out=lsx)
    np.log(lsx, out=lsx)                   # ln(S/X), loop-invariant
    np.sqrt(T, out=sqt)                    # √T, loop-invariant
    np.multiply(T, -r, out=disc)
    np.exp(disc, out=disc)
    disc *= X                              # X·e^{−rT}, loop-invariant
    # Manaster–Koehler warm start: σ₀ = √(2|ln(F/X)|/T) is the vol at
    # which d1 = −d2, the inflection point of price-in-vol.  Newton
    # seeded there converges monotonically for any price inside the
    # no-arbitrage band — a flat warm start instead ping-pongs between
    # the clip bounds on deep-ITM/OTM options whose vega underflows.
    np.multiply(T, r, out=iv)
    iv += lsx                              # ln(F/X)
    np.abs(iv, out=iv)
    iv *= 2.0
    iv /= T
    np.sqrt(iv, out=iv)
    np.clip(iv, 0.3, VOL_HI, out=iv)       # σ₀=0 at-the-money forward
    for _ in range(NEWTON_ITERS):
        np.multiply(iv, iv, out=d2)
        d2 *= 0.5
        d2 += r
        d2 *= T                            # (r+σ²/2)T
        np.add(lsx, d2, out=d1)
        np.multiply(iv, sqt, out=d2)       # σ√T
        d1 /= d2                           # d1
        np.subtract(d1, d2, out=d2)        # d2
        np.multiply(d1, d1, out=pdf)
        pdf *= -0.5
        np.exp(pdf, out=pdf)
        pdf *= _INV_SQRT_2PI               # φ(d1)
        ndtr(d12, out=d12)                 # N(d1), N(d2)
        d1 *= S
        d2 *= disc
        d1 -= d2                           # model price
        d1 -= price                        # residual
        pdf *= S
        pdf *= sqt                         # vega = S·φ(d1)·√T
        np.maximum(pdf, _VEGA_FLOOR, out=pdf)
        d1 /= pdf                          # Newton step
        iv -= d1
        np.clip(iv, VOL_LO, VOL_HI, out=iv)


def implied_vol(price, S, X, T, r, is_call=True) -> np.ndarray:
    """Implied volatility of observed option prices: the tier's Newton
    body (:func:`_implied_slab`) over the caller's vectors.

    ``price``, ``S``, ``X`` and ``T`` are scalars or equal-length
    vectors; ``is_call`` is a scalar bool or a per-element mask.  Puts
    are turned into call prices by parity (they share σ), so one solver
    serves both.  Returns σ in ``price``'s shape.

    Raises
    ------
    DomainError
        If a term is non-positive, or a price lies outside its static
        no-arbitrage band (no σ can reproduce it).
    ConvergenceError
        If the solved σ reprices a call more than :data:`RESIDUAL_TOL`
        away from its target (a price above the model's at
        :data:`VOL_HI`).
    """
    price, S, X, T, calls = np.broadcast_arrays(
        *(np.asarray(a, dtype=DTYPE) for a in (price, S, X, T)),
        np.asarray(is_call, dtype=bool))
    shape = price.shape
    price, S, X, T, calls = (a.reshape(-1) for a in (price, S, X, T, calls))
    validate_inputs(S, X, T, 0.5)
    disc = np.multiply(T, -r)
    np.exp(disc, out=disc)
    disc *= X                              # X·e^{−rT}
    target = np.where(calls, price, price + S - disc)
    bad = ((target < np.maximum(S - disc, 0.0) - _BAND_SLACK)
           | (target > S + _BAND_SLACK))
    if bad.any():
        first = np.flatnonzero(bad)[0]
        raise DomainError(
            f"{int(bad.sum())} price(s) violate no-arbitrage bounds "
            f"(first at index {first})")
    iv = np.empty_like(target)
    _implied_slab(target, S, X, T, r, iv)
    model = np.empty_like(target)
    call_price_sig(S, X, T, r, iv, model)
    worst = float(np.max(np.abs(model - target)))
    if worst > RESIDUAL_TOL:
        raise ConvergenceError(
            f"implied vol did not reach tol={RESIDUAL_TOL} in "
            f"{NEWTON_ITERS} iterations (worst residual {worst:.3e})",
            NEWTON_ITERS, worst)
    return iv.reshape(shape)


def _implied_slab_task(arrays: dict, consts: dict, a: int, b: int,
                       slab: int) -> None:
    _implied_slab(arrays["price"], arrays["S"], arrays["X"], arrays["T"],
                  consts["r"], arrays["iv"], consts.get("scratch"))


def surface_vols(batch: OptionBatch) -> np.ndarray:
    """The deterministic per-option "true" vol surface the workload
    inverts: ``vol · (0.6 … 1.4)`` linearly across the batch."""
    n = len(batch)
    span = np.linspace(0.6, 1.4, n, dtype=DTYPE)
    return batch.vol * span


def compile_implied_parallel(batch: OptionBatch, executor: SlabExecutor,
                             arena):
    """Plan-compile the implied-vol tier: targets are generated once at
    compile time into arena buffers, and warm runs are pure Newton
    sweeps with zero hot-path allocations."""
    soa = batch.batch if batch.layout == "soa" else aos_to_soa(batch.batch)
    S, X, T = soa.get("S"), soa.get("X"), soa.get("T")
    n = S.shape[0]
    sig = surface_vols(batch)
    target = arena.reserve("target", n)
    call_price_sig(S, X, T, batch.rate, sig, target)
    iv = arena.reserve("result", n)
    per_slab = None
    if not executor.out_of_process:
        def per_slab(a, b, i):
            return {"scratch": arena.reserve(f"scratch{i}", (6, b - a))}
    dispatch = arena.adopt(executor.compile_lanes(
        _implied_slab_task, n,
        bytes_per_item=IMPLIED_BYTES_PER_OPTION,
        sliced={"price": target, "S": S, "X": X, "T": T, "iv": iv},
        writes=("iv",),
        outputs={"implied_vol": ("iv",)},
        consts={"r": batch.rate},
        per_slab=per_slab, tag="bsiv"))
    slab = ResultSlab({"implied_vol": iv})

    def run() -> ResultSlab:
        dispatch.run()
        return slab

    return run

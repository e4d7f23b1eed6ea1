"""Black-Scholes *parallel* tier: fused slab kernel.

The functional peak for this kernel on a real host: one pass over each
slab of the SOA batch, walked in L2-sized sub-blocks, with every
intermediate held in three reusable scratch rows and every ufunc
writing through ``out=`` — no per-operation temporaries, so a
sub-block's working set (3 inputs, 2 outputs, 3 scratch = 8 doubles per
option, plus the CDF's workspace) stays in the private L2 as the
paper's Sec. IV-A3 peak code keeps its vectors in registers and L1.
The math is the advanced tier's (one N(x) pass over d1 and d2 +
put-call parity); slabs are dispatched by a
:class:`~repro.parallel.slab.SlabExecutor` — threads overlap because
NumPy ufuncs drop the GIL, and the ``process`` backend maps the same
slabs out of shared-memory segments, bit-identical on every backend.
Every option is its own lane, so this tier and the Greeks, scenario and
implied tiers compile through ``compile_lanes``: an in-caller dispatch
is one slab, and a small batch pays the body's fixed cost once.
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...errors import LayoutError
from ...parallel.slab import SlabExecutor
from ...pricing.options import OptionBatch
from ...simd.layout import aos_to_soa
from ...vmath.ndtr import ndtr

#: Doubles in flight per option: S/X/T in, call/put out, 3 scratch.
SLAB_BYTES_PER_OPTION = 8 * 8

#: The floor's operand: a 0-d array takes the ufunc's fast path, where a
#: Python float is converted on every call.
ZERO = np.zeros((), dtype=DTYPE)
ZERO.flags.writeable = False

#: Options per sub-block of the price body (8 rows of 64 KB plus the
#: CDF's 512 KB workspace): 400k options in ~11.5 ms vs ~12.3 unblocked.
PRICE_BLOCK = 8192


def scratch_rows(block: np.ndarray, rows: int, a: int, b: int) -> np.ndarray:
    """Items ``[a, b)`` of a flat ``rows × width`` scratch block laid out
    slab after slab, as ``(rows, b - a)`` contiguous rows (so ``ndtr``
    allocates nothing).  A slab and every cut of it share its memory."""
    return block[rows * a:rows * b].reshape(rows, b - a)


def lane_runner(dispatch, width: int, result):
    """The runner of a width-``width`` lane tier: replay ``dispatch``
    over the live prefix ``[0, n)`` (every item when ``n`` is None) and
    return ``result``.  Each slab body floors its own output rows, so
    nothing runs here after the dispatch.  Its ``live_width`` tells
    the plan that it takes ``n``, which the plan has checked."""
    replay = dispatch.replay

    def run(n: int | None = None):
        replay(n)
        return result

    run.live_width = width
    return run


def rate_vol_operands(batch: OptionBatch) -> tuple:
    """Where a dispatch declares the batch's ``r``/``sig``, as
    ``(sliced, consts)`` fragments: streamed columns for a per-option
    batch, plan constants otherwise.  ``consts["cols"]`` tells the slab
    body which form it was compiled for: nothing is probed per run."""
    operands = {"r": batch.rate, "sig": batch.vol}
    if batch.per_option:
        return operands, {"cols": True}
    return {}, {**operands, "cols": False}


def _price_slab(S, X, T, r, sig, cols: bool, call, put,
                scratch=None) -> None:
    """Fused pricing of one slab, writing ``call``/``put`` in place.

    Walked in :data:`PRICE_BLOCK`-option sub-blocks on three scratch
    rows (a flat ``3·min(len(S), PRICE_BLOCK)`` block, preallocated on
    the planned path); ``a``/``b`` take five roles each (annotated
    inline) and are adjacent, so N(d1), N(d2) are one ``ndtr`` call.
    ``r``/``sig`` are floats, or with ``cols`` per-option columns whose
    passes keep the float form's IEEE grouping, bit for bit.
    """
    m = S.shape[0]
    if scratch is None:
        scratch = np.empty(3 * min(m, PRICE_BLOCK), dtype=DTYPE)
    for lo in range(0, m, PRICE_BLOCK):
        k = min(PRICE_BLOCK, m - lo)
        if k == m:      # one sub-block: the slab's own views, no slicing
            Sb, Xb, Tb, cb, pb, rb, sb = S, X, T, call, put, r, sig
        else:
            blk = slice(lo, lo + k)
            Sb, Xb, Tb, cb, pb = S[blk], X[blk], T[blk], call[blk], put[blk]
            rb, sb = (r[blk], sig[blk]) if cols else (r, sig)
        ab, c = scratch[:2 * k], scratch[2 * k:3 * k]
        a, b = ab[:k], ab[k:]
        np.divide(Sb, Xb, out=a)
        np.log(a, out=a)                   # a = ln(S/X)
        np.sqrt(Tb, out=b)
        b *= sb                            # b = σ√T
        if cols:
            np.multiply(sb, sb, out=c)
            c /= 2.0
            c += rb
            c *= Tb
        else:
            np.multiply(Tb, r + sig * sig / 2.0, out=c)
        a += c                             # a = ln(S/X) + (r+σ²/2)T
        a /= b                             # a = d1
        np.subtract(a, b, out=b)           # b = d2  (d1 − σ√T)
        if cols:
            np.negative(rb, out=c)
            c *= Tb
        else:
            np.multiply(Tb, -r, out=c)
        np.exp(c, out=c)
        c *= Xb                            # c = X·e^{−rT}
        ndtr(ab, out=ab)                   # a = N(d1), b = N(d2)
        b *= c                             # b = X·e^{−rT}·N(d2)
        np.multiply(Sb, a, out=cb)
        cb -= b                            # C = S·N(d1) − X·e^{−rT}·N(d2)
        np.subtract(cb, Sb, out=pb)
        pb += c                            # P = C − S + X·e^{−rT} (parity)
        # Rounding (parity, deep out of the money) never prices below 0.
        np.maximum(cb, ZERO, out=cb)
        np.maximum(pb, ZERO, out=pb)


def _price_slab_task(arrays: dict, consts: dict, a: int, b: int,
                     slab: int) -> None:
    """Slab task in the backend-portable shape (module-level so the
    process backend can pickle it by reference)."""
    cols = consts["cols"]
    params = arrays if cols else consts
    _price_slab(arrays["S"], arrays["X"], arrays["T"],
                params["r"], params["sig"], cols,
                arrays["call"], arrays["put"], consts.get("scratch"))


def compile_price_parallel(batch: OptionBatch, executor: SlabExecutor,
                           arena):
    """Plan-compile the fused slab tier for repeated same-shape calls.

    Reserves the concatenated ``[calls | puts]`` result vector and one
    flat three-row scratch block per slab in ``arena`` — the slab
    kernel then writes every price and every intermediate through
    ``out=`` into arena memory, and the compiled dispatch replays with
    no staging or validation.  The process backend skips the scratch
    handoff (workers allocate in their own address space rather than
    receive pickled copies each run).  Returns the runner; its result
    view is ``arena.get("result")``.  ``run(n)`` prices the live
    prefix ``[0, n)`` only (see
    :meth:`~repro.parallel.slab.CompiledDispatch.run`): the first
    ``n`` calls and puts.
    """
    if batch.layout not in ("aos", "soa"):
        raise LayoutError(f"unsupported layout {batch.layout!r}")
    soa = batch.batch if batch.layout == "soa" else aos_to_soa(batch.batch)
    S, X, T = soa.get("S"), soa.get("X"), soa.get("T")
    n = S.shape[0]
    result = arena.reserve("result", 2 * n)
    call, put = result[:n], result[n:]
    per_slab = None
    if not executor.out_of_process:
        # Sized by the width, not the slab, so a prefix cut of slab i
        # gets slab i's block back.
        def per_slab(a, b, i):
            return {"scratch": arena.reserve(f"scratch{i}",
                                             3 * min(n, PRICE_BLOCK))}
    columns, params = rate_vol_operands(batch)
    dispatch = arena.adopt(executor.compile_lanes(
        _price_slab_task, n,
        bytes_per_item=SLAB_BYTES_PER_OPTION,
        sliced={"S": S, "X": X, "T": T, "call": call, "put": put,
                **columns},
        writes=("call", "put"),
        consts=params,
        per_slab=per_slab, prefixes=True, tag="bs"))
    return lane_runner(dispatch, n, result)

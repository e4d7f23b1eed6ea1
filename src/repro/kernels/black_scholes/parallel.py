"""Black-Scholes *parallel* tier: fused slab kernel.

The functional peak for this kernel on a real host: one pass over each
LLC-sized slab of the SOA batch with every intermediate held in three
reusable scratch arrays and every ufunc writing through ``out=`` — no
per-operation temporaries, so the slab's working set (3 inputs,
2 outputs, 3 scratch = 8 doubles per option) stays cache-resident
exactly as the paper's Sec. IV-A3 peak code keeps its vectors in
registers and L1.  The math is the advanced tier's (erf substitution +
put-call parity); slabs are dispatched by a
:class:`~repro.parallel.slab.SlabExecutor` — threads overlap because
NumPy ufuncs drop the GIL, and the ``process`` backend maps the same
slabs out of shared-memory segments, bit-identical on every backend.
"""

from __future__ import annotations

import numpy as np

from ...errors import LayoutError
from ...parallel.slab import SlabExecutor
from ...plan import one_shot
from ...pricing.options import OptionBatch
from ...simd.layout import aos_to_soa
from ...vmath.libs import VectorMathLib, get_lib

_INV_SQRT2 = 0.7071067811865476

#: Doubles in flight per option: S/X/T in, call/put out, 3 scratch.
SLAB_BYTES_PER_OPTION = 8 * 8


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
                lib: VectorMathLib, scratch=None) -> None:
    """Fused pricing of one slab, writing ``call``/``put`` in place.

    Three scratch arrays cover every intermediate; ``a``/``b`` are
    reused across five algebraic roles each (annotated inline).
    ``scratch`` — a ``(3, len(S))`` block — supplies them preallocated
    (the planned path); without it the slab allocates its own.
    ``r``/``sig`` are floats, or with ``cols`` per-option columns: the
    fused scalar expressions then run as column passes in the same IEEE
    grouping, bit-identical to the float form.
    """
    if scratch is None:
        a = np.empty_like(S)
        b = np.empty_like(S)
        c = np.empty_like(S)
    else:
        a, b, c = scratch
    np.divide(S, X, out=a)
    lib.log(a, out=a)                      # a = ln(S/X)
    np.sqrt(T, out=b)
    b *= sig                               # b = σ√T
    if cols:
        np.multiply(sig, sig, out=c)
        c /= 2.0
        c += r
        c *= T
    else:
        np.multiply(T, r + sig * sig / 2.0, out=c)
    a += c                                 # a = ln(S/X) + (r+σ²/2)T
    a /= b                                 # a = d1
    np.subtract(a, b, out=b)               # b = d2  (d1 − σ√T)
    if cols:
        np.negative(r, out=c)
        c *= T
    else:
        np.multiply(T, -r, out=c)
    lib.exp(c, out=c)
    c *= X                                 # c = X·e^{−rT}
    a *= _INV_SQRT2
    lib.erf(a, out=a)
    a *= 0.5
    a += 0.5                               # a = N(d1) via erf
    b *= _INV_SQRT2
    lib.erf(b, out=b)
    b *= 0.5
    b += 0.5                               # b = N(d2)
    b *= c                                 # b = X·e^{−rT}·N(d2)
    np.multiply(S, a, out=call)
    call -= b                              # C = S·N(d1) − X·e^{−rT}·N(d2)
    np.subtract(call, S, out=put)
    put += c                               # P = C − S + X·e^{−rT} (parity)


def price_parallel(batch: OptionBatch,
                   executor: SlabExecutor | None = None,
                   lib: VectorMathLib | str = "numpy") -> None:
    """Price the batch in place over zero-copy slabs: the one-shot of
    :func:`compile_price_parallel`.

    Accepts AOS (converted, as the intermediate tier does) or SOA
    batches.  ``executor=None`` uses the process-wide persistent
    threaded executor; pass ``SlabExecutor("serial")`` for the
    single-core baseline — the two produce bit-identical prices.
    """
    result = one_shot(compile_price_parallel, batch, executor=executor,
                      lib=lib)
    n = len(batch)
    batch.batch.set("call", result[:n])
    batch.batch.set("put", result[n:])


def _price_slab_task(arrays: dict, consts: dict, a: int, b: int,
                     slab: int) -> None:
    """Slab task in the backend-portable shape (module-level so the
    process backend can pickle it by reference)."""
    cols = consts["cols"]
    params = arrays if cols else consts
    _price_slab(arrays["S"], arrays["X"], arrays["T"],
                params["r"], params["sig"], cols,
                arrays["call"], arrays["put"], consts["lib"],
                consts.get("scratch"))


def compile_price_parallel(batch: OptionBatch, executor: SlabExecutor,
                           arena, lib: VectorMathLib | str = "numpy"):
    """Plan-compile the fused slab tier for repeated same-shape calls.

    Reserves the concatenated ``[calls | puts]`` result vector and one
    ``(3, slab_len)`` scratch block per slab in ``arena`` — the slab
    kernel then writes every price and every intermediate through
    ``out=`` into arena memory, and the compiled dispatch replays with
    no staging or validation.  The process backend skips the scratch
    handoff (workers allocate in their own address space rather than
    receive pickled copies each run).  Returns the zero-argument
    runner; its result view is ``arena.get("result")``.
    """
    if isinstance(lib, str):
        lib = get_lib(lib)
    if batch.layout not in ("aos", "soa"):
        raise LayoutError(f"unsupported layout {batch.layout!r}")
    soa = batch.batch if batch.layout == "soa" else aos_to_soa(batch.batch)
    S, X, T = soa.get("S"), soa.get("X"), soa.get("T")
    n = S.shape[0]
    result = arena.reserve("result", 2 * n)
    call, put = result[:n], result[n:]
    per_slab = None
    if not executor.out_of_process:
        slabs = executor.plan(n, SLAB_BYTES_PER_OPTION)
        scratch = [arena.reserve(f"scratch{i}", (3, b - a))
                   for i, (a, b) in enumerate(slabs)]
        per_slab = lambda a, b, i: {"scratch": scratch[i]}  # noqa: E731
    columns, params = rate_vol_operands(batch)
    dispatch = arena.adopt(executor.compile_shm(
        _price_slab_task, n,
        bytes_per_item=SLAB_BYTES_PER_OPTION,
        sliced={"S": S, "X": X, "T": T, "call": call, "put": put,
                **columns},
        writes=("call", "put"),
        consts={"lib": lib, **params},
        per_slab=per_slab, tag="bs"))

    def run() -> np.ndarray:
        dispatch.run()
        return result

    return run

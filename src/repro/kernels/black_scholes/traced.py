"""VectorMachine Black-Scholes: mechanical validation of Fig. 4's claims.

Runs the pricing loop instruction by instruction on the tracing machine
in both layouts, so the Sec. IV-A3 statements are measured rather than
assumed:

* AOS: each vector access to a field gathers/scatters across multiple
  cachelines (up to ``width`` of them);
* SOA: every access is one aligned vector load/store touching the
  minimum number of lines.

Every transcendental element (one ``log``, one ``exp`` and four ``cnd``
an option) is charged to the machine's trace, which the cost model
prices per architecture.
Use small batch sizes — this is a validation instrument, not the
functional path.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigurationError
from ...pricing.options import BS_FIELDS, OptionBatch
from ...simd.layout import AOSBatch
from ...simd.machine import VectorMachine
from ...vmath.ndtr import ndtr


def _price_block(machine, S, X, T, rate, sig):
    """The vectorized pricing math on machine-bound values; returns
    (call, put) numpy blocks (transcendental elements charged to the
    machine's trace)."""
    tr = machine.trace
    n = S.size
    sig22 = sig * sig / 2.0
    qlog = np.log(S / X)
    tr.transcendental("log", n)
    tr.op("div")
    sqrt_t = np.sqrt(T)
    tr.op("sqrt")
    denom = 1.0 / (sig * sqrt_t)
    tr.op("mul")
    tr.op("div")
    d1 = (qlog + (rate + sig22) * T) * denom
    d2 = (qlog + (rate - sig22) * T) * denom
    tr.op("mul", 4)
    tr.op("add", 2)
    xexp = X * np.exp(-rate * T)
    tr.transcendental("exp", n)
    tr.op("mul", 2)
    nd1 = ndtr(d1)
    nd2 = ndtr(d2)
    nd1m = ndtr(-d1)
    nd2m = ndtr(-d2)
    tr.transcendental("cnd", 4 * n)
    tr.op("sub", 2)                # the two negations
    call = S * nd1 - xexp * nd2
    put = xexp * nd2m - S * nd1m
    tr.op("mul", 4)
    tr.op("sub", 2)
    return call, put


def traced_price_aos(machine: VectorMachine, batch: OptionBatch) -> None:
    """Price an AOS batch on the machine: field accesses are gathers,
    output writes are scatters."""
    if batch.layout != "aos":
        raise ConfigurationError("traced_price_aos needs an AOS batch")
    w = machine.width
    if batch.n % w:
        raise ConfigurationError(
            f"batch size {batch.n} must be a multiple of width {w}"
        )
    aos: AOSBatch = batch.batch
    arr = machine.array(aos.data, "aos")
    for start in range(0, batch.n, w):
        S = machine.gather(arr, aos.field_indices("S", w, start))
        X = machine.gather(arr, aos.field_indices("X", w, start))
        T = machine.gather(arr, aos.field_indices("T", w, start))
        call, put = _price_block(machine, S.data, X.data, T.data,
                                 batch.rate, batch.vol)
        from ...simd.vec import F64Vec
        machine.scatter(arr, aos.field_indices("call", w, start),
                        F64Vec(call, machine=machine))
        machine.scatter(arr, aos.field_indices("put", w, start),
                        F64Vec(put, machine=machine))
        machine.loop_overhead(1)
    # Reflect results back into the caller's batch.
    aos.data[:] = arr.data


def traced_price_soa(machine: VectorMachine, batch: OptionBatch) -> None:
    """Price an SOA batch on the machine: contiguous aligned accesses."""
    if batch.layout != "soa":
        raise ConfigurationError("traced_price_soa needs an SOA batch")
    w = machine.width
    if batch.n % w:
        raise ConfigurationError(
            f"batch size {batch.n} must be a multiple of width {w}"
        )
    arrays = {
        name: machine.array(batch.batch.get(name), name)
        for name in ("S", "X", "T", "call", "put")
    }
    for start in range(0, batch.n, w):
        S = machine.load(arrays["S"], start)
        X = machine.load(arrays["X"], start)
        T = machine.load(arrays["T"], start)
        call, put = _price_block(machine, S.data, X.data, T.data,
                                 batch.rate, batch.vol)
        from ...simd.vec import F64Vec
        machine.store(arrays["call"], start, F64Vec(call, machine=machine))
        machine.store(arrays["put"], start, F64Vec(put, machine=machine))
        machine.loop_overhead(1)
    for name in ("call", "put"):
        batch.batch.set(name, arrays[name].data)

"""SVML- and VML-style vector math library facades.

The paper distinguishes two vendor math paths (Sec. IV-A3):

* **SVML** (Short Vector Math Library) — transcendentals inlined into the
  vector loop by the compiler, consuming/producing registers: no extra
  memory traffic, small cache footprint. Modelled here by *block-fused*
  evaluation.
* **VML** (Vector Math Library, part of MKL) — array-call interface, one
  whole-array pass per function: extra sweeps over memory, larger
  footprint, but better per-element cost at large batch sizes. Modelled by
  whole-array evaluation plus explicit traffic accounting.

On SNB-EP VML wins for Black-Scholes; on KNC it shows no benefit over
SVML — the facades reproduce exactly this trade-off through their traffic
profiles.

Each facade optionally records into an :class:`~repro.simd.trace.OpTrace`:
transcendental element counts always, and (VML only) the intermediate
array traffic its calling convention implies.
"""

from __future__ import annotations

import numpy as np

from ..config import DP_BYTES, DTYPE
from ..simd.trace import OpTrace
from .cnd import vcnd, vcnd_via_erf, vpdf
from .erf import verf, verfc
from .exp import vexp, vexp_blocked
from .invcnd import vinvcnd
from .log import vlog, vlog_blocked
from .ndtr import ndtr

_SQRT2 = 1.4142135623730951


def _into(out: np.ndarray | None, res: np.ndarray) -> np.ndarray:
    """Copy ``res`` into ``out`` when requested (fallback for impls
    without native ``out=`` support)."""
    if out is None:
        return res
    np.copyto(out, res)
    return out


class VectorMathLib:
    """Common facade: ``exp``/``log``/``erf``/``erfc``/``cnd``/``invcnd``
    over double arrays, with optional trace recording."""

    name = "abstract"
    #: True when a call streams its operand+result through memory
    #: (array-call convention) rather than staying in registers.
    array_call = False

    def __init__(self, trace: OpTrace | None = None):
        self.trace = trace

    # -- internal ------------------------------------------------------
    def _account(self, func: str, x: np.ndarray) -> None:
        if self.trace is not None:
            self.trace.transcendental(func, int(x.size))
            if self.array_call:
                # One read of the operand + one write of the result that
                # would have stayed in registers under inlined SVML code.
                self.trace.dram(read=x.size * DP_BYTES,
                                written=x.size * DP_BYTES)

    def _eval(self, func: str, x, out: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=DTYPE)
        self._account(func, x)
        return self._impl(func, x, out)

    def _impl(self, func: str, x: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    # -- public ops ----------------------------------------------------
    # Every op takes an optional ``out`` (``out is x`` is allowed): the
    # fused slab kernels evaluate transcendentals in place so no
    # per-call temporary is allocated inside the hot loop.
    def exp(self, x, out: np.ndarray | None = None) -> np.ndarray:
        return self._eval("exp", x, out)

    def log(self, x, out: np.ndarray | None = None) -> np.ndarray:
        return self._eval("log", x, out)

    def erf(self, x, out: np.ndarray | None = None) -> np.ndarray:
        return self._eval("erf", x, out)

    def cnd(self, x, out: np.ndarray | None = None) -> np.ndarray:
        return self._eval("cnd", x, out)

    def invcnd(self, x, out: np.ndarray | None = None) -> np.ndarray:
        return self._eval("invcnd", x, out)

    def pdf(self, x, out: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=DTYPE)
        self._account("exp", x)  # φ costs one exp plus a couple of muls
        return vpdf(x, out=out)


class SVMLLib(VectorMathLib):
    """Inlined short-vector math: block-fused from-scratch kernels."""

    name = "svml"
    array_call = False

    def __init__(self, trace: OpTrace | None = None, block: int = 1024):
        super().__init__(trace)
        self.block = block

    def _impl(self, func: str, x: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        if func == "exp":
            return vexp_blocked(x, self.block, out=out)
        if func == "log":
            return vlog_blocked(x, self.block, out=out)
        if func == "erf":
            return verf(x, out=out)
        if func == "cnd":
            return vcnd_via_erf(x, out=out)
        if func == "invcnd":
            return _into(out, vinvcnd(x))
        raise KeyError(func)


class VMLLib(VectorMathLib):
    """Array-call math: whole-array passes (charges memory traffic)."""

    name = "vml"
    array_call = True

    def _impl(self, func: str, x: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        if func == "exp":
            return vexp(x, out=out)
        if func == "log":
            return vlog(x, out=out)
        if func == "erf":
            return verf(x, out=out)
        if func == "cnd":
            return vcnd(x, out=out)
        if func == "invcnd":
            return _into(out, vinvcnd(x))
        raise KeyError(func)


class NumpyLib(VectorMathLib):
    """NumPy ufuncs plus the table-driven :func:`~repro.vmath.ndtr.ndtr`:
    the fast functional path used inside timed benchmark loops.  ``cnd``
    and ``erf`` are accurate to 1e-15 absolute; ``exp``/``log`` are
    NumPy's own (asserted against the from-scratch kernels in tests);
    ``invcnd`` is the from-scratch :func:`~repro.vmath.invcnd.vinvcnd`,
    as in the other facades."""

    name = "numpy"
    array_call = False

    def _impl(self, func: str, x: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
        # Every branch but ``invcnd`` writes through ``out=`` in C
        # loops — genuinely allocation-free, unlike the from-scratch
        # facades (which compute then copy into ``out``).
        if func == "exp":
            return np.exp(x, out=out) if out is not None else np.exp(x)
        if func == "log":
            return np.log(x, out=out) if out is not None else np.log(x)
        if func == "erf":                  # erf(x) = 2·N(x·√2) − 1
            res = np.multiply(x, _SQRT2, out=out)
            ndtr(res, out=res)
            res *= 2.0
            res -= 1.0
            return res
        if func == "cnd":
            return ndtr(x, out=out)
        if func == "invcnd":
            return _into(out, vinvcnd(x))
        raise KeyError(func)


def get_lib(name: str, trace: OpTrace | None = None) -> VectorMathLib:
    """Factory for the three library facades."""
    libs = {"svml": SVMLLib, "vml": VMLLib, "numpy": NumpyLib}
    try:
        return libs[name](trace)
    except KeyError:
        raise KeyError(
            f"unknown math lib {name!r}; want one of {sorted(libs)}"
        ) from None

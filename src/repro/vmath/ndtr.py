"""Standard normal CDF from a Taylor table: NumPy only, no allocation.

Every measured Black-Scholes tier evaluates N(d1) and N(d2) with a
direct ``ndtr`` call, replaying the paper's Sec.
IV-A2/IV-A3 choice on NumPy: the compiled ``erf`` it replaces is scalar
code at 9-20 ns/element, while a ufunc pass costs ~0.3 ns and a gather
~0.8 ns.  The table wins once a call is wide enough to pay for its 16
ufunc calls (about 4k elements; below that the erf route's four calls
win), which is why the kernels evaluate d1 and d2 in one stacked call.

Table: ``J`` intervals over [-L, L]; node x_j holds the ``K + 1``
Taylor coefficients of N in grid units u in [-1/2, 1/2], c_0 = N(x_j)
and c_k = (-1)^(k-1) He_(k-1)(x_j) φ(x_j) w^k / k! (w the grid step),
built from float64 arithmetic and libm's ``exp``/``erfc`` only.  The
end nodes are exactly (0, 0, ...) and (1, 0, ...), so input beyond the
range returns exactly 0 or 1.  Evaluation, per block of at most ``B``
elements on a per-thread workspace: clamp x to ±L, t = x·J/(2L); the
nearest node is read off ``t + 1.5·2^52``, whose low mantissa bits are
rint(t) (no float-to-int cast, so no cast buffer and no warning on
NaN); u = t - rint(t) exactly; two gathers and four Horner steps.  The
gathers read two read-only arrays derived from ``TABLE``: ``C0`` (its
row c_0) and ``TAYLOR``, the ``(J + 1, K)`` row-major block of
c_1..c_K, whose 32-byte rows numpy's ``take`` copies as one item.  So
an element touches two cache lines (its ``TAYLOR`` row and its ``C0``
entry) where a column gather of the ``(K + 1, J + 1)`` table touches
five (the paper's AOS-gather argument, Sec. IV).  Horner then runs in the same
order on the same operands, so the result does not depend on the
layout.  Every step is elementwise, so blocking never changes a bit.
Max absolute error 4.4e-16 against ``mpmath.ncdf``.

Sweep at 400k elements, 2-vCPU Xeon, 2 MiB private L2 per core (sysfs
``index2``; lscpu's 4 MiB is the sum over two instances): J = 4096, K = 4
is a 164 KB table at ~9 ns/element, against ~18 for the erf route.
On 800k normals the row gather takes 6.3-6.7 ms against 7.1-7.8 for
the column gather (same host, contended; EXPERIMENTS.md, "batch_kernels:
sort on change, row gather, 64-bit fold").
J = 32768, K = 3 saves a Horner step but its 1 MB table's gathers
evict the serving thread's working set (``serve_steady`` ops/s -5 %).
B = 8192 keeps the 512 KB workspace in the private L2.
"""

from __future__ import annotations

import math
import threading

import numpy as np

#: Table intervals over [-L, L], Taylor degree, block length.
J = 4096
K = 4
L = 8.5
B = 8192

_HI, _LO = np.array(L), np.array(-L)
_SCALE = np.array(J / (2.0 * L))       # grid units per unit of x
#: Adding 1.5·2^52 rounds |t| <= 2^51 to an integer (ties to even);
#: its bit view minus ``_BIAS`` is that integer plus J/2, the column.
_ROUND = np.array(1.5 * 2.0 ** 52)
_BIAS = np.array(_ROUND.view(np.int64) - J // 2, dtype=np.intp)


def _build_table() -> np.ndarray:
    """The ``(K + 1, J + 1)`` coefficient table (float64, libm only)."""
    w = 2.0 * L / J
    x = -L + np.arange(J + 1) * w           # exact: w is a dyadic rational
    phi = np.array([math.exp(-0.5 * v * v) for v in x])
    phi /= math.sqrt(2.0 * math.pi)
    table = np.zeros((K + 1, J + 1))
    table[0] = [0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x]
    he_prev, he = np.zeros(J + 1), np.ones(J + 1)     # He_-1, He_0
    for k in range(1, K + 1):
        table[k] = (-1.0) ** (k - 1) * w ** k / math.factorial(k) * he * phi
        he_prev, he = he, x * he - (k - 1) * he_prev
    table[:, 0] = table[:, J] = 0.0
    table[0, J] = 1.0
    return table


TABLE = _build_table()
TABLE.setflags(write=False)
#: The gathered layout: ``C0[j] = TABLE[0, j]``, ``TAYLOR[j, k - 1] =
#: TABLE[k, j]`` for k = 1..K.
C0 = TABLE[0].copy()
TAYLOR = np.ascontiguousarray(TABLE[1:].T)
C0.setflags(write=False)
TAYLOR.setflags(write=False)


class _Workspace(threading.local):
    """One thread's rows (t, r and its bit view, column, the gathered
    c_0 and ``(B, K)`` Taylor block) and their views cut to each block
    length seen, so a warm call builds no views: the serving widths and
    full blocks recur."""

    def __init__(self):
        r = np.empty(B)
        self.rows = (np.empty(B), r, r.view(np.intp),
                     np.empty(B, dtype=np.intp), np.empty(B),
                     np.empty((B, K)))
        self.cuts = {}

    def cut(self, m: int) -> tuple:
        views = self.cuts.get(m)
        if views is None:
            if len(self.cuts) >= 64:       # arbitrary tail lengths
                self.cuts.clear()
            t, r, bits, i, c0, g = self.rows
            c0, g = c0[:m], g[:m]
            views = self.cuts[m] = (t[:m], r[:m], bits[:m], i[:m], c0, g,
                                    (c0, *g.T))
        return views


_WS = _Workspace()


def ndtr(x, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal CDF of ``x``, absolute error below 1e-15.

    ``out`` receives the result (aliasing ``x`` is allowed); a warm
    call with a C-contiguous ``out`` allocates nothing.  ±inf give 0
    and 1, NaN gives NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    elif not out.flags.c_contiguous:
        np.copyto(out, ndtr(x))
        return out
    xs = x if x.ndim == 1 else x.reshape(-1)
    ys = out if out.ndim == 1 else out.reshape(-1)
    n = xs.shape[0]
    for s in range(0, n, B):
        m = min(B, n - s)
        t, r, bits, i, c0, g, rows = _WS.cut(m)
        y = ys[s:s + m]
        np.minimum(xs[s:s + m], _HI, out=t)
        np.maximum(t, _LO, out=t)
        t *= _SCALE
        np.add(t, _ROUND, out=r)
        np.subtract(bits, _BIAS, out=i)       # column = rint(t) + J/2
        r -= _ROUND
        t -= r                                # u in [-1/2, 1/2], exact
        C0.take(i, out=c0, mode="clip")
        TAYLOR.take(i, axis=0, out=g, mode="clip")
        np.multiply(rows[K], t, out=y)
        for k in range(K - 1, 0, -1):
            y += rows[k]
            y *= t
        y += rows[0]
    return out

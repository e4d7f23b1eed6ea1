"""Inverse cumulative normal distribution (normal quantile).

The ICDF transform is one of the two ways the MKL-based RNG pipeline
turns uniforms into gaussians (Sec. IV-D3); it is also what a
Brownian-bridge consumer feeds on. Implementation: the classic
Abramowitz–Stegun 26.2.23 rational initial guess (|ε| < 4.5e-4),
polished by three Halley iterations against our own tail-accurate
:func:`~repro.vmath.cnd.vcnd` / :func:`~repro.vmath.cnd.vpdf` — each
iteration roughly cubes the error, landing at full double precision for
p ∈ (1e-300, 1).
"""

from __future__ import annotations

import threading

import numpy as np

from ..config import DTYPE
from ..errors import DomainError
from .cnd import vcnd, vpdf
from .log import vlog

# Abramowitz & Stegun 26.2.23 coefficients.
_C0, _C1, _C2 = 2.515517, 0.802853, 0.010328
_D1, _D2, _D3 = 1.432788, 0.189269, 0.001308

_HALLEY_ITERS = 3


#: Block length: each block's own rows (five float64, one bool) are a
#: per-thread workspace, and the erfc/exp inside ``vcnd``/``vpdf``
#: allocate block-sized temporaries, so a call's transient peak is a
#: constant (~590 KB at 8192), however long ``p`` is.  Each block pays
#: ~1000 ufunc calls, so shorter blocks cost time: at 65 536 inputs
#: (in-process, 2-vCPU host, three interleaved rounds, ns/element)
#: 2048 1197-1307, 8192 998-1346, 16384 952-997, unblocked 1092-1406.
B = 8192


class _Workspace(threading.local):
    """One thread's block rows: the clamped lower-half probability, the
    iterate, two Halley temporaries, the density and a bool mask."""

    def __init__(self):
        self.rows = np.empty((5, B))
        self.mask = np.empty(B, dtype=bool)


_WS = _Workspace()


def _initial_guess(safe: np.ndarray, x: np.ndarray, a: np.ndarray,
                   b: np.ndarray) -> None:
    """A&S 26.2.23 lower-tail guess for ``safe`` in (0, 0.5] into ``x``
    (``a``/``b`` scratch); the caller mirrors."""
    t = vlog(safe, out=x)
    t *= -2.0
    np.sqrt(t, out=t)
    np.multiply(t, _C2, out=a)          # num = C0 + t·(C1 + t·C2)
    a += _C1
    a *= t
    a += _C0
    np.multiply(t, _D3, out=b)          # den = 1 + t·(D1 + t·(D2 + t·D3))
    b += _D2
    b *= t
    b += _D1
    b *= t
    b += 1.0
    a /= b
    np.subtract(t, a, out=x)
    np.negative(x, out=x)               # -(t - num/den)


def _invcnd_block(p: np.ndarray, y: np.ndarray) -> None:
    """``vinvcnd`` of one block ``p`` into ``y`` (may alias ``p``: ``p``
    is read for the last time before ``y`` is written)."""
    m = p.shape[0]
    safe, x, a, b, phi = (row[:m] for row in _WS.rows)
    mask = _WS.mask[:m]
    # Work on the lower half; mirror the upper half.
    np.subtract(1.0, p, out=safe)
    np.minimum(p, safe, out=safe)
    np.greater(safe, 0.0, out=mask)
    np.logical_not(mask, out=mask)
    np.copyto(safe, 0.5, where=mask)    # placeholder off-domain
    _initial_guess(safe, x, a, b)
    for _ in range(_HALLEY_ITERS):
        vcnd(x, out=a)
        a -= safe                       # err
        vpdf(x, out=phi)
        a /= phi                        # u
        # Halley step for F(x) = cnd(x) - p, F' = φ, F'' = -x φ.
        np.multiply(x, 0.5, out=b)
        b *= a
        b += 1.0
        np.divide(a, b, out=b)
        x -= b
    np.greater(p, 0.5, out=mask)
    np.negative(x, out=x, where=mask)
    np.equal(p, 0.0, out=mask)
    np.copyto(x, -np.inf, where=mask)
    np.equal(p, 1.0, out=mask)
    np.copyto(x, np.inf, where=mask)
    np.isnan(p, out=mask)
    np.copyto(x, np.nan, where=mask)
    np.copyto(y, x)


def vinvcnd(p, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized normal quantile Φ⁻¹(p) for double arrays.

    Raises :class:`~repro.errors.DomainError` if any input lies outside
    [0, 1]; endpoints map to ∓inf, NaN gives NaN.  ``out`` receives the
    result (aliasing ``p`` is allowed); with a C-contiguous ``out`` a
    call holds no new array, and its transient peak does not grow with
    ``p`` (see :data:`B`).
    """
    p = np.asarray(p, dtype=DTYPE)
    if p.size and (np.fmin.reduce(p, axis=None) < 0.0
                   or np.fmax.reduce(p, axis=None) > 1.0):
        raise DomainError("invcnd: probabilities must lie in [0, 1]")
    if out is None:
        out = np.empty(p.shape)
    elif not out.flags.c_contiguous:
        np.copyto(out, vinvcnd(p))
        return out
    ps = p if p.ndim == 1 else p.reshape(-1)
    ys = out if out.ndim == 1 else out.reshape(-1)
    for s in range(0, ps.shape[0], B):
        _invcnd_block(ps[s:s + B], ys[s:s + B])
    return out

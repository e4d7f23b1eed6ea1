"""Uniform → normal transforms.

MKL's normal generation is a BRNG (the twister) plus a transform; the two
standard choices are both provided:

* **Box-Muller** — two uniforms → two independent gaussians via
  ``sqrt(-2 ln u1)·(cos, sin)(2π u2)``; branch-free and fully SIMD.
* **ICDF** — one uniform → one gaussian through the inverse normal CDF
  (:func:`~repro.vmath.invcnd.vinvcnd`); preferred when a *sequence* must
  keep a one-draw-per-step correspondence (e.g. Brownian-bridge
  consumption order), at a higher per-element polynomial cost.

The choice is an ablation axis in the RNG benchmarks (DESIGN.md §7).
"""

from __future__ import annotations

import numpy as np

from ..config import DTYPE
from ..errors import ConfigurationError
from ..vmath.invcnd import vinvcnd

_TWO_PI = 6.283185307179586


def box_muller(u1, u2) -> tuple:
    """Transform two uniform arrays in (0, 1) into two standard-normal
    arrays. Zeros in ``u1`` are nudged to the smallest positive double to
    avoid log(0)."""
    u1 = np.asarray(u1, dtype=DTYPE)
    u2 = np.asarray(u2, dtype=DTYPE)
    if u1.shape != u2.shape:
        raise ConfigurationError(
            f"u1/u2 shape mismatch: {u1.shape} vs {u2.shape}"
        )
    u1 = np.maximum(u1, np.finfo(DTYPE).tiny)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = _TWO_PI * u2
    return r * np.cos(theta), r * np.sin(theta)


def icdf_transform(u) -> np.ndarray:
    """Transform uniforms in (0, 1) to gaussians via the normal quantile
    (the from-scratch :func:`vinvcnd`; tests pin it to scipy's ``ndtri``
    within 1e-9).  Endpoints are clipped into the open interval first,
    so every output is finite.
    """
    u = np.asarray(u, dtype=DTYPE)
    lo = np.finfo(DTYPE).tiny
    u = np.clip(u, lo, 1.0 - np.finfo(DTYPE).epsneg)
    return vinvcnd(u)


class NormalGenerator:
    """A BRNG plus transform, producing standard-normal doubles.

    Parameters
    ----------
    brng:
        Any object with a ``uniform53(n)`` method (MT19937 / MT2203 /
        Philox).
    method:
        ``"box_muller"`` or ``"icdf"``.
    """

    def __init__(self, brng, method: str = "box_muller"):
        if method not in ("box_muller", "icdf"):
            raise ConfigurationError(
                f"unknown normal method {method!r}"
            )
        self.brng = brng
        self.method = method
        self._spare = None

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard-normal doubles."""
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        if self.method == "icdf":
            return icdf_transform(self.brng.uniform53(n))
        # Box-Muller in pairs, caching the spare half.
        out = np.empty(n, dtype=DTYPE)
        filled = 0
        if self._spare is not None and n > 0:
            take = min(n, self._spare.size)
            out[:take] = self._spare[:take]
            self._spare = self._spare[take:] if take < self._spare.size else None
            filled = take
        remaining = n - filled
        if remaining > 0:
            pairs = -(-remaining // 2)
            u = self.brng.uniform53(2 * pairs)
            z0, z1 = box_muller(u[0::2], u[1::2])
            z = np.empty(2 * pairs, dtype=DTYPE)
            z[0::2] = z0
            z[1::2] = z1
            out[filled:] = z[:remaining]
            if remaining < z.size:
                self._spare = z[remaining:]
        return out

"""Cumulative normal distribution and density.

``vcnd`` is the reference-code primitive (Listing 1's ``cnd``), built
on ``erfc`` so the lower tail does not cancel as the paper's
``cnd(x) = (1 + erf(x/√2))/2`` substitution (Sec. IV-A2) would; the
measured Black-Scholes tiers use the table-driven :func:`.ndtr.ndtr`.
"""

from __future__ import annotations

import numpy as np

from ..config import DTYPE
from .erf import verfc
from .exp import vexp

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327


def vcnd(x, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal CDF, tail-accurate (via erfc). ``out`` receives
    the result in place (aliasing ``x`` is allowed) and carries the
    ``-x/√2`` argument, so ``vcnd`` adds no temporary to erfc's."""
    x = np.asarray(x, dtype=DTYPE)
    if out is None:
        out = np.empty(x.shape)
    np.multiply(x, -_INV_SQRT2, out=out)
    res = verfc(out, out=out)
    res *= 0.5
    return res


def vpdf(x, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normal density φ(x)."""
    x = np.asarray(x, dtype=DTYPE)
    res = vexp(-0.5 * x * x, out=out)
    res *= _INV_SQRT_2PI
    return res

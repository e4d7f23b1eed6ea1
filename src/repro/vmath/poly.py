"""Polynomial evaluation by Horner's rule.

One multiply-add per coefficient, each dependent on the last: the
serial dependency chain that out-of-order cores hide and in-order cores
stall on. The range-reduced ``vexp`` and ``vlog`` evaluate their
polynomials through it.
"""

from __future__ import annotations

import numpy as np

from ..config import DTYPE
from ..errors import ConfigurationError


def horner(x: np.ndarray, coeffs) -> np.ndarray:
    """Evaluate ``sum(coeffs[i] * x**i)`` by Horner's rule.

    ``coeffs`` are low-order first. The loop body is one fused
    multiply-add per coefficient, all on one dependency chain.
    """
    c = np.asarray(coeffs, dtype=DTYPE)
    if c.ndim != 1 or c.size == 0:
        raise ConfigurationError("coeffs must be a non-empty 1-D sequence")
    x = np.asarray(x, dtype=DTYPE)
    acc = np.full_like(x, c[-1])
    for k in range(c.size - 2, -1, -1):
        acc = acc * x + c[k]
    return acc


"""Brownian bridge reference implementation (paper Listing 4).

Scalar transliteration: per simulation, per level, per interval — with
the exact random-consumption order of the listing (terminal value first,
then level by level). Every optimized tier must reproduce these outputs
bit-for-bit given the same random stream.
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...errors import ConfigurationError
from .bridge import BridgeSchedule


def build_reference(schedule: BridgeSchedule, randoms: np.ndarray) -> np.ndarray:
    """Construct bridges for ``sim_n`` paths from a flat random stream.

    ``randoms`` must hold ``sim_n * 2^depth`` normals; returns the
    step-major ``(n_points, sim_n)`` array, a column per path (point 0
    is always 0).
    """
    randoms = np.asarray(randoms, dtype=DTYPE)
    per_path = schedule.randoms_per_path()
    if randoms.ndim != 1 or randoms.size % per_path:
        raise ConfigurationError(
            f"need a flat stream with a multiple of {per_path} normals, "
            f"got shape {randoms.shape}"
        )
    sim_n = randoms.size // per_path
    n_pts = schedule.n_points
    out = np.empty((n_pts, sim_n), dtype=DTYPE)
    src = np.empty(n_pts, dtype=DTYPE)
    dst = np.empty(n_pts, dtype=DTYPE)
    i = 0
    for s in range(sim_n):
        src[0] = 0.0
        src[1] = randoms[i] * schedule.last_sig
        i += 1
        width = 1  # intervals currently bracketed: src[0..width]
        for d in range(schedule.depth):
            dst[0] = src[0]
            w_l, w_r, sg = schedule.w_l[d], schedule.w_r[d], schedule.sig[d]
            for c in range(1 << d):
                dst[2 * c + 1] = (src[c] * w_l[c] + src[c + 1] * w_r[c]
                                  + sg[c] * randoms[i])
                i += 1
                dst[2 * c + 2] = src[c + 1]
            src, dst = dst, src
            width *= 2
        out[:, s] = src[:n_pts]
    return out

"""Binomial tree *advanced* tier: the paper's register-tiling algorithm
(Listing 3, Fig. 2b).

The backward reduction is restructured as a systolic pipeline of ``TS``
accumulation stages held in the register file. ``Tile[j]`` carries the
previous input of stage ``j``; pushing one Call value through all stages
applies ``TS`` time steps to it. Per ``TS`` time steps each Call entry is
read once and written once — the rest of the arithmetic never leaves
registers, multiplying the kernel's arithmetic intensity by ``TS``.

Correctness is the headline property here (the tests require bit-level
agreement with the reference reduction is too strict in float — they
require agreement to ~1e-12, plus an exact-operation-count check in the
traced variant): the pipeline computes exactly the same reduction tree,
only in a different evaluation order along anti-diagonals.

A second tiling level with ``TS`` sized to the L1/L2 cache instead of
the register file is the same code with a larger tile (the
``cache_tile`` parameter of :func:`price_tiled`).
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...errors import DomainError
from ...pricing.options import ExerciseStyle, Option
from .params import crr_params, leaf_values


def default_tile_size(vector_registers: int) -> int:
    """Largest power-of-two tile that leaves a few registers for the
    stream value and coefficients (the paper tunes TS to the register
    file: 16 ymm on SNB-EP → TS=8; 32 zmm on KNC → TS=16)."""
    spare = 4  # m1/m2 + puByDf/pdByDf
    ts = 1
    while ts * 2 + spare <= vector_registers:
        ts *= 2
    return ts


def _triangle_init(call: np.ndarray, tile: np.ndarray, pu, pd) -> None:
    """Fill the pipeline registers from the first TS entries: stage j's
    carried value is the (TS−1−j)-step reduction at index j (the lower
    triangle of Fig. 2b)."""
    ts = tile.shape[-1]
    tmp = call[..., :ts].copy()
    tile[..., ts - 1] = tmp[..., ts - 1]
    for depth in range(1, ts):
        upto = ts - depth
        tmp[..., :upto] = pu * tmp[..., 1:upto + 1] + pd * tmp[..., :upto]
        tile[..., upto - 1] = tmp[..., upto - 1]


def _reduce_plain(call: np.ndarray, steps: int, width: int, pu, pd) -> int:
    """``steps`` plain backward steps on ``call[..., :width]``; returns
    the new live width."""
    for _ in range(steps):
        width -= 1
        call[..., :width] = pu * call[..., 1:width + 1] + pd * call[..., :width]
    return width


def tiled_reduce(call: np.ndarray, n_steps: int, pu, pd, ts: int) -> np.ndarray:
    """Apply ``n_steps`` backward binomial steps to ``call`` (last axis
    of length ``n_steps+1``) using the Listing 3 pipeline with tile size
    ``ts``. ``pu``/``pd`` are scalars or per-lane arrays shaped like
    ``call`` minus its last axis. Returns the per-lane root values."""
    if ts < 1:
        raise DomainError(f"tile size must be >= 1, got {ts}")
    call = np.array(call, dtype=DTYPE, copy=True)
    if call.shape[-1] != n_steps + 1:
        raise DomainError(
            f"call must have {n_steps + 1} entries on its last axis, "
            f"got {call.shape[-1]}"
        )
    pu = np.asarray(pu, dtype=DTYPE)
    pd = np.asarray(pd, dtype=DTYPE)
    if pu.shape not in ((), call.shape[:-1]) or pu.shape != pd.shape:
        raise DomainError(
            f"pu/pd must be scalar or shaped {call.shape[:-1]}, got "
            f"{pu.shape}/{pd.shape}"
        )
    # Column-broadcast forms for slice operations over the tree axis.
    pu_c = pu[..., None] if pu.ndim else pu
    pd_c = pd[..., None] if pd.ndim else pd
    # Remainder steps first so the tile loop sees a multiple of ts.
    width = n_steps + 1
    rem = n_steps % ts
    width = _reduce_plain(call, rem, width, pu_c, pd_c)
    m = n_steps - rem
    tile_shape = call.shape[:-1] + (ts,)
    tile = np.empty(tile_shape, dtype=DTYPE)
    while m >= ts:
        _triangle_init(call, tile, pu_c, pd_c)
        for i in range(ts, m + 1):
            m1 = call[..., i].copy()
            for j in range(ts - 1, -1, -1):
                m2 = pu * m1 + pd * tile[..., j]
                tile[..., j] = m1
                m1 = m2
            call[..., i - ts] = m1
        m -= ts
    return call[..., 0].copy()


def price_tiled(options, n_steps: int, ts: int | None = None,
                vector_registers: int = 32) -> np.ndarray:
    """Price a group of European options (one per lane) with register
    tiling. ``ts`` defaults to the register-file-derived tile size."""
    options = list(options)
    if not options:
        raise DomainError("empty option group")
    if any(o.style is ExerciseStyle.AMERICAN for o in options):
        raise DomainError(
            "register tiling pipelines across time steps and cannot apply "
            "per-step early exercise; use the basic/SIMD tiers for "
            "American options"
        )
    if ts is None:
        ts = default_tile_size(vector_registers)
    params = [crr_params(o, n_steps) for o in options]
    call = np.empty((len(options), n_steps + 1), dtype=DTYPE)
    for lane, (o, p) in enumerate(zip(options, params)):
        call[lane] = leaf_values(o, p)
    pu = np.array([p.pu_by_df for p in params], dtype=DTYPE)
    pd = np.array([p.pd_by_df for p in params], dtype=DTYPE)
    return tiled_reduce(call, n_steps, pu, pd, ts)

"""Brownian bridge *intermediate* tier: SIMD across paths, in cache.

Sec. IV-C2: one simulation per SIMD lane. The state becomes a
``(n_points, L)`` matrix whose rows are contiguous across paths, so
each level's update is a handful of full-width vector operations — the
"minor modification" the paper needs before the compiler can vectorize
vertically — and, the section's other half, paths are built a
cache-sized **block** of ``L`` at a time: the block's draws are
transposed once into a ``(n_steps, L)`` scratch, the bridge is filled
**in place** at its final dyadic rows (level ``d`` reads rows
``0::span`` and ``span::span``, writes rows ``span/2::span``), and the
finished state is transposed once into the path-major output.  One
core (:func:`bridge_blocks`) serves the serial ladder tier, every slab
body and the risk tier.

Given the per-path random layout (terminal draw first, level ``d`` draws
at offsets ``2^d .. 2^{d+1}``), the outputs match the scalar reference
bit-for-bit: the same five operations per midpoint on the same operands
in the same order, whatever the weights.
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...errors import ConfigurationError
from ...plan import WorkspaceArena
from .bridge import BridgeSchedule

#: Cache budget of one bridge block, bytes: state + transposed draws +
#: the two half-height scratch blocks + the streamed-in draws and
#: streamed-out paths.  The private L2 of the hosts this runs on
#: (2 MiB), not the LLC the slab plan reads from sysfs (260 MiB on the
#: bench VM).  Warm build of 32 768 paths x 64 steps, raw ms (median of
#: 15, interleaved) by budget — 512 KiB (L = 200): 21.7, 1 MiB (400):
#: 19.4, 2 MiB (808): 18.3, 4 MiB (1624): 19.3, 8 MiB (3256): 17.9,
#: 16 MiB (6512): 24.1; ping-pong state at slab width: 27.0 — flat
#: over 1-8 MiB, so a constant, not a parameter.
BLOCK_BYTES = 1 << 21


def randoms_to_path_major(schedule: BridgeSchedule,
                          randoms: np.ndarray) -> np.ndarray:
    """Reshape Listing 4's flat stream into (n_paths, randoms_per_path)
    — each path's draws in consumption order."""
    per_path = schedule.randoms_per_path()
    randoms = np.asarray(randoms, dtype=DTYPE)
    if randoms.ndim != 1 or randoms.size % per_path:
        raise ConfigurationError(
            f"need a flat stream with a multiple of {per_path} normals"
        )
    return randoms.reshape(-1, per_path)


def block_paths(schedule: BridgeSchedule) -> int:
    """Paths per bridge block under :data:`BLOCK_BYTES` (a multiple of
    eight, so block rows start cache-line aligned)."""
    per_path = 8 * (2 * schedule.n_points + 2 * schedule.n_steps
                    + 2 * (schedule.n_steps // 2))
    return max(8, BLOCK_BYTES // per_path // 8 * 8)


def bridge_workspace(schedule: BridgeSchedule, n_paths: int,
                     reserve) -> dict:
    """Block workspace for :func:`bridge_blocks` building up to
    ``n_paths`` paths per call: ``(n_points, L)`` state — row 0 zeroed
    here, once; no level ever writes it — ``(n_steps, L)`` transposed
    draws and two ``(n_steps/2, L)`` scratch blocks, ``L`` the lesser
    of ``n_paths`` and :func:`block_paths`.  ``reserve(name, shape)``
    supplies each float64 buffer: a plan's arena reservation, or a
    throw-away :class:`~repro.plan.WorkspaceArena`'s for one call."""
    width = min(n_paths, block_paths(schedule))
    n, half = schedule.n_steps, max(1, schedule.n_steps // 2)
    ws = {"state": reserve("state", (n + 1, width)),
          "rT": reserve("rT", (n, width)),
          "t1": reserve("t1", (half, width)),
          "t2": reserve("t2", (half, width))}
    ws["state"][0] = 0.0
    return ws


def bridge_blocks(schedule: BridgeSchedule, r: np.ndarray,
                  out: np.ndarray, ws: dict) -> None:
    """The one bridge core: build the paths of the path-major
    ``(n_paths, randoms_per_path)`` draw block ``r`` into the
    ``(n_paths, n_points)`` ``out``, one workspace-wide block at a
    time.  Each midpoint is ``w_l·left + w_r·right + sig·z``
    accumulated left to right through the scratch blocks — the
    reference tier's operations, operands and order."""
    width = ws["state"].shape[1]
    n = schedule.n_steps
    for p in range(0, r.shape[0], width):
        take = min(width, r.shape[0] - p)
        state, rT = ws["state"][:, :take], ws["rT"][:, :take]
        np.copyto(rT, r[p:p + take].T)
        np.multiply(rT[0], schedule.last_sig, out=state[n])
        for d in range(schedule.depth):
            n_mid, span = 1 << d, n >> d
            t1, t2 = ws["t1"][:n_mid, :take], ws["t2"][:n_mid, :take]
            np.multiply(schedule.w_l[d][:, None], state[0:n:span], out=t1)
            np.multiply(schedule.w_r[d][:, None], state[span::span], out=t2)
            np.add(t1, t2, out=t1)
            np.multiply(schedule.sig[d][:, None], rT[n_mid:2 * n_mid],
                        out=t2)
            np.add(t1, t2, out=state[span // 2::span])
        np.copyto(out[p:p + take], state.T)


def build_vectorized(schedule: BridgeSchedule, randoms: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Construct all paths; returns (n_paths, n_points).

    ``out`` receives the result in place (the slab tier passes views
    into its preallocated output so no per-slab result is allocated).
    """
    r = randoms_to_path_major(schedule, randoms)
    shape = (r.shape[0], schedule.n_points)
    if out is None:
        out = np.empty(shape, dtype=DTYPE)
    elif out.shape != shape:
        raise ConfigurationError(
            f"out must have shape {shape}, got {out.shape}"
        )
    bridge_blocks(schedule, r, out, bridge_workspace(
        schedule, max(1, r.shape[0]), WorkspaceArena("bridge").reserve))
    return out

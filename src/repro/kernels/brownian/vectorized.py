"""Brownian bridge *intermediate* tier: SIMD across paths, in cache.

Sec. IV-C2: one simulation per SIMD lane. The state becomes a
``(n_points, L)`` matrix whose rows are contiguous across paths, so
each level's update is a handful of full-width vector operations — the
"minor modification" the paper needs before the compiler can vectorize
vertically — and, the section's other half, paths are built a
cache-sized **block** of ``L`` at a time: the bridge is filled **in
place** at its final dyadic rows (level ``d`` reads rows ``0::span``
and ``span::span``, writes rows ``span/2::span``), each level reads its
draws in place as a transposed view of the path-major block, and the
finished state is transposed once into the path-major output.  One
core (:func:`bridge_blocks`) serves the serial ladder tier, every slab
body and the risk tier.

Given the per-path random layout (terminal draw first, level ``d`` draws
at offsets ``2^d .. 2^{d+1}``), the outputs match the scalar reference
bit-for-bit.  On a uniform schedule
(:attr:`~.bridge.BridgeSchedule.uniform_sig`: every weight exactly
``½``, one ``sig`` per level) a level is four passes — ``left + right``,
times ``½``, ``sig·z``, the sum — and stays exact: scaling by ``½`` is
exact, so ``fl(½L + ½R) = ½·fl(L + R)`` whenever ``½L`` and ``½R`` are
normal (and ``L + R`` does not overflow), and a bridge built from
finite normal draws never comes near the subnormal range (its smallest
nonzero value is a draw of ~1e-16 times a ``sig``).  Any other
schedule runs the reference's own five operations per midpoint, on the
same operands in the same order.
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...errors import ConfigurationError
from ...plan import WorkspaceArena
from .bridge import BridgeSchedule

#: Cache budget of one bridge block, bytes: state + the two half-height
#: scratch blocks + the streamed-in draws and streamed-out paths.  The
#: private L2 of the hosts this runs on (2 MiB), not the LLC the slab
#: plan reads from sysfs (260 MiB on the bench VM).  Warm build of
#: 32 768 paths x 64 steps with the four-pass body on a 2-vCPU VM, raw
#: ms (median of 15, interleaved) by budget — 512 KiB (L = 248): 19.7,
#: 1 MiB (504): 16.9, 2 MiB (1016): 15.5, 4 MiB (2032): 17.0, 8 MiB
#: (4064): 18.6, 16 MiB (8128): 23.5 — shallow around 2 MiB, so a
#: constant, not a parameter.
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
    per_path = 8 * (2 * schedule.n_points + schedule.n_steps
                    + 2 * (schedule.n_steps // 2))
    return max(8, BLOCK_BYTES // per_path // 8 * 8)


def bridge_workspace(schedule: BridgeSchedule, n_paths: int,
                     reserve) -> dict:
    """Block workspace for :func:`bridge_blocks` building up to
    ``n_paths`` paths per call: ``(n_points, L)`` state — row 0 zeroed
    here, once; no level ever writes it — and two ``(n_steps/2, L)``
    scratch blocks, ``L`` the lesser of ``n_paths`` and
    :func:`block_paths`.  ``reserve(name, shape)`` supplies each
    float64 buffer: a plan's arena reservation, or a throw-away
    :class:`~repro.plan.WorkspaceArena`'s for one call."""
    width = min(n_paths, block_paths(schedule))
    n, half = schedule.n_steps, max(1, schedule.n_steps // 2)
    ws = {"state": reserve("state", (n + 1, width)),
          "t1": reserve("t1", (half, width)),
          "t2": reserve("t2", (half, width))}
    ws["state"][0] = 0.0
    return ws


def bridge_blocks(schedule: BridgeSchedule, r: np.ndarray,
                  out: np.ndarray, ws: dict) -> None:
    """The one bridge core: build the paths of the path-major
    ``(n_paths, randoms_per_path)`` draw block ``r`` into the
    ``(n_paths, n_points)`` ``out``, one workspace-wide block at a
    time, reading each level's draws in place.  A uniform schedule
    computes each midpoint as ``½·(left + right) + sig·z``, any other
    as ``w_l·left + w_r·right + sig·z`` accumulated left to right —
    both bit for bit the reference tier's values.  The sums go through
    the scratch blocks: writing into ``state`` rows directly makes
    NumPy copy the overlapping inputs."""
    width = ws["state"].shape[1]
    n = schedule.n_steps
    uniform = schedule.uniform_sig
    for p in range(0, r.shape[0], width):
        take = min(width, r.shape[0] - p)
        state, block = ws["state"][:, :take], r[p:p + take]
        np.multiply(block[:, 0], schedule.last_sig, out=state[n])
        for d in range(schedule.depth):
            n_mid, span = 1 << d, n >> d
            t1, t2 = ws["t1"][:n_mid, :take], ws["t2"][:n_mid, :take]
            z = block[:, n_mid:2 * n_mid].T
            if uniform is None:
                np.multiply(schedule.w_l[d][:, None], state[0:n:span],
                            out=t1)
                np.multiply(schedule.w_r[d][:, None], state[span::span],
                            out=t2)
                np.add(t1, t2, out=t1)
                np.multiply(schedule.sig[d][:, None], z, out=t2)
            else:
                np.add(state[0:n:span], state[span::span], out=t1)
                np.multiply(t1, 0.5, out=t1)
                np.multiply(z, uniform[d], out=t2)
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
    elif out.shape != shape or out.dtype != DTYPE:
        raise ConfigurationError(
            f"out must be a {np.dtype(DTYPE)} array of shape {shape}, "
            f"got {out.dtype} {out.shape}"
        )
    bridge_blocks(schedule, r, out, bridge_workspace(
        schedule, max(1, r.shape[0]), WorkspaceArena("bridge").reserve))
    return out

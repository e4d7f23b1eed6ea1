"""Brownian bridge *intermediate* tier: SIMD across paths, in cache.

Sec. IV-C2: one simulation per SIMD lane.  Paths are **step-major** —
the output is ``(n_points, n_paths)``, a row per grid point contiguous
across paths, a column per path — so each level's update is a handful
of full-width vector operations (the "minor modification" the paper
needs before the compiler can vectorize vertically).  The section's
other half: paths are built a cache-sized **block** of ``L`` columns
at a time, straight into the output at their final dyadic rows (level
``d`` reads rows ``0::span`` and ``span::span``, writes rows
``span/2::span``).  Per block, one contiguous pass scales the block's
path-major draws by their ``sig`` into a workspace whose rows are
padded one double off the power-of-two stride, and each level reads
its draws as a transposed view of that workspace.  Nothing is
transposed into the output.  One core (:func:`bridge_blocks`) serves
the serial ladder tier, every slab body and the risk tier.

Given the per-path random layout (terminal draw first, level ``d`` draws
at offsets ``2^d .. 2^{d+1}``), the outputs match the scalar reference
bit-for-bit.  On a uniform schedule
(:attr:`~.bridge.BridgeSchedule.uniform_sig`: every weight exactly
``½``, one ``sig`` per level) a level is three passes — ``left +
right``, times ``½``, plus the scaled draws — and stays exact: scaling
by ``½`` is exact, so ``fl(½L + ½R) = ½·fl(L + R)`` whenever ``½L`` and
``½R`` are normal (and ``L + R`` does not overflow), and a bridge built
from finite normal draws never comes near the subnormal range (its
smallest nonzero value is a draw of ~1e-16 times a ``sig``).  Any
other schedule runs the reference's own operations per midpoint, on
the same operands in the same order.
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...errors import ConfigurationError
from ...plan import WorkspaceArena
from .bridge import BridgeSchedule

#: Cache budget of one bridge block, bytes: the padded scaled draws +
#: the half-height scratch block + the streamed-in draws and the
#: block's output columns.  Not the LLC the slab plan reads from sysfs
#: (260-300 MiB on the bench VMs).  Warm serial ``parallel`` plan of
#: 32 768 paths x 64 steps (one slab) on a 2-vCPU VM with a 2 MiB
#: private L2, median of 30 runs, budgets interleaved, six processes:
#: 6 MiB (L = 3472) read 9.5-12.0 ms as the host's load moved, and the
#: other budgets, as a ratio to 6 MiB in the same process — 2 MiB
#: (1152): 1.09-1.17, 3 MiB (1736): 1.17-1.24, 4 MiB (2312):
#: 1.14-1.21, 5 MiB (2896): 0.95-1.03, 7 MiB (4056): 1.01-1.06, 8 MiB
#: (4632): 0.97-1.02, 10 MiB (5792): 1.01-1.08, 12 MiB (6952):
#: 1.01-1.07 — flat from 5 to 8 MiB, so a constant, not a parameter.
BLOCK_BYTES = 6 << 20


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
                    + schedule.n_steps // 2)
    return max(8, BLOCK_BYTES // per_path // 8 * 8)


def bridge_workspace(schedule: BridgeSchedule, n_paths: int,
                     reserve) -> dict:
    """Block workspace for :func:`bridge_blocks` building up to
    ``n_paths`` paths per call: the ``(L, n_steps + 1)`` scaled draws —
    a row per path, padded one double off the power-of-two stride —
    and one ``(n_steps/2, L)`` scratch block, plus a second for a
    schedule without :attr:`~.bridge.BridgeSchedule.uniform_sig`; ``L``
    is the lesser of ``n_paths`` and :func:`block_paths`.
    ``reserve(name, shape)`` supplies each float64 buffer: a plan's
    arena reservation, or a throw-away
    :class:`~repro.plan.WorkspaceArena`'s for one call."""
    width = min(n_paths, block_paths(schedule))
    n, half = schedule.n_steps, max(1, schedule.n_steps // 2)
    ws = {"z": reserve("z", (width, n + 1)),
          "t1": reserve("t1", (half, width))}
    if schedule.uniform_sig is None:
        ws["t2"] = reserve("t2", (half, width))
    return ws


def bridge_blocks(schedule: BridgeSchedule, r: np.ndarray,
                  out: np.ndarray, ws: dict) -> None:
    """The one bridge core: build the paths of the path-major
    ``(n_paths, randoms_per_path)`` draw block ``r`` into the
    step-major ``(n_points, n_paths)`` ``out``, one workspace-wide
    block of columns at a time.  Each block's draws are scaled by
    :attr:`~.bridge.BridgeSchedule.draw_sig` in one contiguous pass;
    then a uniform schedule computes each midpoint as
    ``½·(left + right) + z``, any other as ``w_l·left + w_r·right + z``
    accumulated left to right — both bit for bit the reference tier's
    values (``z = r·sig`` is the reference's ``sig·r``).  The sums go
    through the scratch blocks: writing into ``out`` rows directly
    makes NumPy copy the overlapping inputs."""
    width = ws["t1"].shape[1]
    n = schedule.n_steps
    general = schedule.uniform_sig is None
    out[0] = 0.0
    for p in range(0, r.shape[0], width):
        take = min(width, r.shape[0] - p)
        state, z = out[:, p:p + take], ws["z"][:take, :n]
        np.multiply(r[p:p + take], schedule.draw_sig, out=z)
        np.copyto(state[n], z[:, 0])
        for d in range(schedule.depth):
            n_mid, span = 1 << d, n >> d
            t1 = ws["t1"][:n_mid, :take]
            if general:
                t2 = ws["t2"][:n_mid, :take]
                np.multiply(schedule.w_l[d][:, None], state[0:n:span],
                            out=t1)
                np.multiply(schedule.w_r[d][:, None], state[span::span],
                            out=t2)
                np.add(t1, t2, out=t1)
            else:
                np.add(state[0:n:span], state[span::span], out=t1)
                np.multiply(t1, 0.5, out=t1)
            np.add(t1, z[:, n_mid:2 * n_mid].T, out=state[span // 2::span])


def build_vectorized(schedule: BridgeSchedule, randoms: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Construct all paths; returns step-major (n_points, n_paths).

    ``out`` receives the result in place (the interleaved tier passes
    column views of its preallocated output so no per-block result is
    allocated).
    """
    r = randoms_to_path_major(schedule, randoms)
    shape = (schedule.n_points, r.shape[0])
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

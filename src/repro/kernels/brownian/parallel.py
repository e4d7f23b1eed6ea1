"""Brownian bridge *parallel* tier: slab over paths.

The bridge construction is embarrassingly parallel across paths (each
column of the level-update state is one path), so the slab engine
partitions the path axis into slabs — the unit of parallel work, sized
from the LLC like :func:`~.interleaved.default_block_paths` — and each
slab loops the one bridge core (:func:`~.vectorized.bridge_blocks`)
over its L2-sized blocks, straight into a view of the preallocated
``(n_paths, n_points)`` output.  A slab owns one block workspace,
whatever its width.  Per-path arithmetic is independent of slab and
block width, so the result is bit-identical to the serial vectorized
tier for any slab size, backend or worker count.

The Sec. IV-C2 RNG interleaving (normals generated block by block and
consumed cache-hot) is the serial ``interleaved`` tier,
:func:`~.interleaved.build_interleaved`.
"""

from __future__ import annotations

import numpy as np

from ...parallel.slab import SlabExecutor
from ...plan import WorkspaceArena, one_shot
from .bridge import BridgeSchedule
from .vectorized import (bridge_blocks, bridge_workspace,
                         randoms_to_path_major)


def _bytes_per_path(schedule: BridgeSchedule) -> int:
    """Slab budget per path: randoms in, output block, and the share
    of state and update scratch a path holds while its block is built
    (the :func:`default_block_paths` accounting)."""
    return (schedule.randoms_per_path() + 3 * schedule.n_points) * 8


def _build_slab(arrays: dict, consts: dict, a: int, b: int,
                slab: int) -> None:
    """Pre-generated-stream slab task, all four backends (module-level
    for process-backend pickling): build this slab's bridges into the
    output view, through the plan's block workspace — or, in a worker
    process that owns no arena, one allocated for the call."""
    schedule = consts["schedule"]
    ws = consts.get("ws") or bridge_workspace(
        schedule, b - a, WorkspaceArena("bb").reserve)
    bridge_blocks(schedule, arrays["r"], arrays["out"], ws)


def compile_build_parallel(schedule: BridgeSchedule, randoms: np.ndarray,
                           executor: SlabExecutor, arena):
    """Plan-compile the slab-parallel bridge builder.

    Hoists to compile time everything that does not depend on the
    draws: the path-major reshape, the output allocation and — per
    in-process slab — one block workspace
    (:func:`~.vectorized.bridge_workspace`: in-place state with its
    zero row, and update scratch).  Out-of-process workers own their
    address space, so there the slab body allocates its block
    workspace per call — the same core, bit for bit.  The runner's
    result view is the flat ``arena.get("result")`` reshaped per path.
    """
    r = randoms_to_path_major(schedule, randoms)
    n_paths = r.shape[0]
    out = arena.reserve("result", (n_paths, schedule.n_points))
    flat = out.reshape(-1)
    bpp = _bytes_per_path(schedule)
    per_slab = None
    if not executor.out_of_process:
        wss = [bridge_workspace(schedule, b - a, arena.scoped(i))
               for i, (a, b) in enumerate(executor.plan(n_paths, bpp))]
        per_slab = lambda a, b, i: {"ws": wss[i]}  # noqa: E731
    dispatch = arena.adopt(executor.compile_shm(
        _build_slab, n_paths, bytes_per_item=bpp,
        sliced={"r": r, "out": out}, writes=("out",),
        consts={"schedule": schedule}, per_slab=per_slab, tag="bb"))

    def run() -> np.ndarray:
        dispatch.run()
        return flat

    return run


def build_parallel(schedule: BridgeSchedule, randoms: np.ndarray,
                   executor: SlabExecutor | None = None) -> np.ndarray:
    """Build all bridges from a pre-generated stream, slab-parallel:
    the one-shot of :func:`compile_build_parallel`.

    Bit-identical to :func:`~.vectorized.build_vectorized` on the same
    stream; returns ``(n_paths, n_points)``.
    """
    flat = one_shot(compile_build_parallel, schedule, randoms,
                    executor=executor)
    return flat.reshape(-1, schedule.n_points)

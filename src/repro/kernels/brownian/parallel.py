"""Brownian bridge *parallel* tier: slab over paths.

The bridge construction is embarrassingly parallel across paths (each
column of the step-major output is one path), so the slab engine
partitions the path axis into slabs — the unit of parallel work, sized
from the LLC like :func:`~.interleaved.default_block_paths` — and each
slab loops the one bridge core (:func:`~.vectorized.bridge_blocks`)
over its cache-sized blocks, straight into its columns of the
preallocated ``(n_points, n_paths)`` output.  The output is dispatched
as its transpose, so the engine's axis-0 slab cut is a column range;
out of process that F-ordered view is located in the plan's segment
like any other arena buffer.  A slab owns one block workspace,
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
from ...plan import WorkspaceArena
from .bridge import BridgeSchedule
from .vectorized import (bridge_blocks, bridge_workspace,
                         randoms_to_path_major)


def _bytes_per_path(schedule: BridgeSchedule) -> int:
    """Slab budget per path: randoms in, output block, and the share
    of scaled draws and update scratch a path holds while its block is
    built (the :func:`default_block_paths` accounting)."""
    return (schedule.randoms_per_path() + 3 * schedule.n_points) * 8


def _build_slab(arrays: dict, consts: dict, a: int, b: int,
                slab: int) -> None:
    """Pre-generated-stream slab task, all four backends (module-level
    for process-backend pickling): build this slab's bridges into the
    output columns (``arrays["out"]`` is their transpose), through the
    plan's block workspace — or, in a worker process that owns no
    arena, one allocated for the call."""
    schedule = consts["schedule"]
    ws = consts.get("ws") or bridge_workspace(
        schedule, b - a, WorkspaceArena("bb").reserve)
    bridge_blocks(schedule, arrays["r"], arrays["out"].T, ws)


def compile_build_parallel(schedule: BridgeSchedule, randoms: np.ndarray,
                           executor: SlabExecutor, arena):
    """Plan-compile the slab-parallel bridge builder.

    Hoists to compile time everything that does not depend on the
    draws: the path-major reshape, the output allocation and — per
    in-process slab — one block workspace
    (:func:`~.vectorized.bridge_workspace`: scaled draws and update
    scratch).  Out-of-process workers own their address space, so
    there the slab body allocates its block workspace per call — the
    same core, bit for bit.  The runner's result is the flat
    step-major ``(n_points, n_paths)`` output.
    """
    r = randoms_to_path_major(schedule, randoms)
    n_paths = r.shape[0]
    out = arena.reserve("result", (schedule.n_points, n_paths))
    flat = out.reshape(-1)
    bpp = _bytes_per_path(schedule)
    per_slab = None
    if not executor.out_of_process:
        def per_slab(a, b, i):
            return {"ws": bridge_workspace(schedule, b - a,
                                           arena.scoped(i))}
    dispatch = arena.adopt(executor.compile_lanes(
        _build_slab, n_paths, bytes_per_item=bpp,
        sliced={"r": r, "out": out.T}, writes=("out",),
        consts={"schedule": schedule}, per_slab=per_slab, tag="bb"))

    def run() -> np.ndarray:
        dispatch.run()
        return flat

    return run

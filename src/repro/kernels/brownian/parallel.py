"""Brownian bridge *parallel* tier: slab over paths.

The bridge construction is embarrassingly parallel across paths (each
column of the level-update state is one path), so the slab engine
partitions the path axis into LLC-sized blocks — the same working-set
rule as :func:`~.interleaved.default_block_paths` — and builds each
block through :func:`~.vectorized.build_vectorized` directly into a
view of the preallocated ``(n_paths, n_points)`` output.  Per-path
arithmetic is independent of the batch width, so the result is
bit-identical to the serial vectorized tier for any slab size, backend
or worker count.

:func:`build_interleaved_parallel` adds the Sec. IV-C2 RNG interleaving
on top: each slab generates its own normals from an independent
per-slab stream immediately before consuming them, so the random array
never exists at full size.
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...errors import ConfigurationError
from ...parallel.slab import SlabExecutor, default_executor
from ...plan import one_shot
from ...rng import NormalGenerator, make_streams
from .bridge import BridgeSchedule
from .vectorized import (build_vectorized, build_vectorized_ws,
                         level_coefficients, randoms_to_path_major)


def _bytes_per_path(schedule: BridgeSchedule) -> int:
    """Slab working set per path: randoms in, src/dst level state,
    output block (the :func:`default_block_paths` accounting)."""
    return (schedule.randoms_per_path() + 3 * schedule.n_points) * 8


def _build_slab(arrays: dict, consts: dict, a: int, b: int,
                slab: int) -> None:
    """Pre-generated-stream slab task (module-level for process-backend
    pickling): build this slab's bridges into the output view."""
    build_vectorized(consts["schedule"], arrays["r"].reshape(-1),
                     out=arrays["out"])


def _interleaved_slab(arrays: dict, consts: dict, a: int, b: int,
                      slab: int) -> None:
    """Interleaved-RNG slab task: generate this slab's normals from its
    own stream and consume them immediately."""
    gen = NormalGenerator(consts["stream"], consts["method"])
    z = gen.normals((b - a) * consts["per_path"])
    build_vectorized(consts["schedule"], z, out=arrays["out"])


def _build_slab_ws(arrays: dict, consts: dict, a: int, b: int,
                   slab: int) -> None:
    """Planned slab task: build this slab's bridges through its own
    preallocated level-state workspace."""
    build_vectorized_ws(consts["schedule"], arrays["r"], consts["coefs"],
                        consts["ws"], arrays["out"])


def compile_build_parallel(schedule: BridgeSchedule, randoms: np.ndarray,
                           executor: SlabExecutor, arena):
    """Plan-compile the slab-parallel bridge builder.

    Hoists to compile time everything that does not depend on the
    draws: the path-major reshape, the output allocation, the per-level
    coefficient broadcasting, and — per slab — the two
    ``(n_points, L)`` level-state arrays plus update scratch.  Row 0 of
    each level state is zeroed exactly once, at reservation: the level
    recurrence rewrites every row it reads except row 0, which it only
    copies forward, so the zero survives every run.  Out-of-process
    workers own their address space, so there each slab builds through
    :func:`~.vectorized.build_vectorized` — the same per-path
    arithmetic, bit for bit.  The runner's result view is the flat
    ``arena.get("result")`` reshaped per path.
    """
    r = randoms_to_path_major(schedule, randoms)
    n_paths = r.shape[0]
    n_pts = schedule.n_points
    out = arena.reserve("result", (n_paths, n_pts))
    flat = out.reshape(-1)
    bpp = _bytes_per_path(schedule)
    if executor.out_of_process:
        dispatch = arena.adopt(executor.compile_shm(
            _build_slab, n_paths, bytes_per_item=bpp,
            sliced={"r": r, "out": out}, writes=("out",),
            consts={"schedule": schedule}, tag="bb"))
    else:
        coefs = level_coefficients(schedule)
        half = max(1, n_pts // 2)
        slabs = executor.plan(n_paths, bpp)
        wss = []
        for i, (a, b) in enumerate(slabs):
            lanes = b - a
            wss.append({
                "src": arena.reserve(f"src{i}", (n_pts, lanes), fill=0.0),
                "dst": arena.reserve(f"dst{i}", (n_pts, lanes), fill=0.0),
                "t1": arena.reserve(f"t1_{i}", (half, lanes)),
                "t2": arena.reserve(f"t2_{i}", (half, lanes)),
            })
        dispatch = arena.adopt(executor.compile_shm(
            _build_slab_ws, n_paths, bytes_per_item=bpp,
            sliced={"r": r, "out": out}, writes=("out",),
            consts={"schedule": schedule, "coefs": coefs},
            per_slab=lambda a, b, i: {"ws": wss[i]}, tag="bb"))

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


def build_interleaved_parallel(schedule: BridgeSchedule, n_paths: int,
                               executor: SlabExecutor | None = None,
                               seed: int = 2012, kind: str = "mt2203",
                               method: str = "box_muller") -> np.ndarray:
    """Interleaved-RNG construction: per-slab streams generate each
    block's normals cache-hot, immediately consumed — the full random
    array never touches DRAM.  Deterministic for a fixed seed and slab
    plan (serial ≡ thread)."""
    if n_paths < 1:
        raise ConfigurationError("n_paths must be >= 1")
    if executor is None:
        executor = default_executor()
    per_path = schedule.randoms_per_path()
    bpp = _bytes_per_path(schedule)
    slabs = executor.plan(n_paths, bpp)
    max_paths = max((b - a) for a, b in slabs) if slabs else 1
    streams = make_streams(max(1, len(slabs)), kind=kind, seed=seed,
                           draws_per_worker=4 * max_paths * per_path + 8)
    out = np.empty((n_paths, schedule.n_points), dtype=DTYPE)
    executor.map_shm(
        _interleaved_slab, n_paths, bytes_per_item=bpp,
        sliced={"out": out}, writes=("out",),
        consts={"schedule": schedule, "per_path": per_path,
                "method": method},
        per_slab=lambda a, b, i: {"stream": streams[i]},
    )
    return out

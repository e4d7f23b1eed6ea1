"""RNG *parallel* tier: lane-batched jump-ahead generation.

The paper's per-thread RNG strategy (Sec. IV-D3) hands each thread an
independent stream, which changes the draw sequence versus the serial
generator.  This kernel's agreement tolerance is 0.0 — every tier must
reproduce the scalar mt19937ar stream bit for bit — so the parallel
tier instead uses **jump-ahead partitioning**, twice over: slab
``[a, b)`` starts ``2·a`` raw draws into the one stream (``uniform53``
folds two 32-bit outputs per double), and inside the slab up to
:data:`~repro.rng.mt19937.LANES` *lanes* each start whole 624-word
blocks further on.  The lanes are the vector axis: one ``(lanes, 624)``
state advances through the ufunc calls a single state would take.  The
concatenated lanes and slabs are exactly the sequential stream, on any
backend, for any slab plan or worker count.

The skip itself is sequential (MT19937 has no cheap log-time jump
without the jump-polynomial tables), so it is paid **once, at compile
time**: one walk of the stream leaves a 624-word snapshot per lane,
re-based to start exactly at the lane's first draw.  Warm runs — in
the caller, on threads, or in worker processes, which receive the
snapshots as a shared array — restore snapshots and tabulate; no run
re-walks the stream, and a lane's first block needs no twist.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigurationError
from ...parallel.slab import SlabExecutor
from ...rng.mt19937 import (LANES, MT19937, advance_window,
                            block_workspace, snapshot_lanes, uniform53_lanes)


def plan_snapshots(seed: int, slabs, doubles_per_item: int,
                   executor: SlabExecutor, arena):
    """One walk of the ``seed`` stream across every slab of ``slabs``
    (``doubles_per_item`` doubles per slab item) — O(2n) skip work per
    compile, however many slabs and lanes.  Returns the ``(rows, 624)``
    lane-snapshot array and the per-slab constants
    :func:`lane_tabulate` reads: the slab's first ``row`` in it and, in
    process, its ``(lanes, 624)`` workspace."""
    w, mti = MT19937(seed).state()
    ws = block_workspace()
    advance_window(w, mti, ws)
    states, marks = [], []
    for i, (a, b) in enumerate(slabs):
        marks.append({"row": len(states)})
        states += snapshot_lanes(w, doubles_per_item * (b - a), ws)
        if not executor.out_of_process:
            marks[i]["ws"] = block_workspace(LANES, arena.scoped(i))
    snaps = arena.reserve("snaps", (len(states), MT19937.state_size),
                          dtype=np.uint32)
    snaps[:] = states
    return snaps, marks


def lane_tabulate(arrays: dict, consts: dict, out: np.ndarray) -> None:
    """Fill ``out`` with this slab's doubles from its lane snapshots,
    through the plan's workspace — or, in a worker process that owns no
    arena, one allocated for the call."""
    ws = consts.get("ws")
    if ws is None:
        ws = block_workspace(LANES)
    uniform53_lanes(arrays["snaps"][consts["row"]:], out, ws)


def _lanes_slab(arrays: dict, consts: dict, a: int, b: int,
                slab: int) -> None:
    """Slab task, all four backends (module-level for process-backend
    pickling): tabulate this slab's doubles in place."""
    lane_tabulate(arrays, consts, arrays["out"])


def compile_uniform53_parallel(n: int, seed: int,
                               executor: SlabExecutor, arena):
    """Plan-compile the lane-batched jump-ahead tabulation: the stream
    walk, its snapshots and the in-process workspaces
    (:func:`plan_snapshots`) and the result are paid here; warm runs
    generate straight into the result through
    :func:`~repro.rng.mt19937.uniform53_lanes`, the class methods'
    twist/temper/fold bit for bit."""
    if n < 0:
        raise ConfigurationError("n must be non-negative")
    out = arena.reserve("result", n)
    if n == 0:
        return lambda: out
    snaps, marks = plan_snapshots(seed, executor.plan(n, 8), 1, executor,
                                  arena)
    dispatch = arena.adopt(executor.compile_shm(
        _lanes_slab, n, bytes_per_item=8,
        sliced={"out": out}, shared={"snaps": snaps}, writes=("out",),
        per_slab=lambda a, b, i: marks[i], tag="rng"))

    def run() -> np.ndarray:
        dispatch.run()
        return out

    return run

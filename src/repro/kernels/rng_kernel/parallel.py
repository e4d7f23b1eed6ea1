"""RNG *parallel* tier: jump-ahead slab generation.

The paper's per-thread RNG strategy (Sec. IV-D3) hands each thread an
independent stream, which changes the draw sequence versus the serial
generator.  This kernel's agreement tolerance is 0.0 — every tier must
reproduce the scalar mt19937ar stream bit for bit — so the parallel
tier instead uses **jump-ahead partitioning**: slab ``[a, b)`` runs a
fresh :class:`~repro.rng.mt19937.MT19937` advanced past the ``2·a`` raw
draws the preceding slabs consume (``uniform53`` folds two 32-bit
outputs per double) and generates its ``b − a`` doubles from there.
The concatenated slabs are exactly the sequential stream, on any
backend, for any slab plan or worker count.

The skip itself is sequential (MT19937 has no cheap log-time jump
without the jump-polynomial tables), so each slab pays O(a) skip work —
the classic jump-ahead trade-off.  With LLC-sized slabs the skip is a
block-vectorized state recurrence over the same range the slab then
tabulates, so the parallel tier still wins wall-clock once more than
one worker runs; the measured scaling bench reports exactly how much.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigurationError
from ...parallel.slab import SlabExecutor
from ...plan import one_shot
from ...rng.mt19937 import MT19937, block_workspace, uniform53_into

#: Raw 32-bit outputs folded into each 53-bit uniform double.
DRAWS_PER_DOUBLE = 2


def _rng_slab(arrays: dict, consts: dict, a: int, b: int,
              slab: int) -> None:
    """Slab task (module-level for process-backend pickling): skip to
    raw draw ``2·a``, then tabulate this slab's doubles in place."""
    gen = MT19937(consts["seed"]).jumped_copy(DRAWS_PER_DOUBLE * a)
    arrays["out"][:] = gen.uniform53(b - a)


def _rng_slab_planned(arrays: dict, consts: dict, a: int, b: int,
                      slab: int) -> None:
    """Planned slab task: restore the pre-jumped state snapshot, then
    tabulate in place through the slab workspace — the O(a) skip was
    paid once, at compile time."""
    ws = consts["ws"]
    mt = ws["mt"]
    np.copyto(mt, consts["snap_mt"])
    uniform53_into(mt, consts["snap_mti"], arrays["out"], ws)


def compile_uniform53_parallel(n: int, seed: int,
                               executor: SlabExecutor, arena):
    """Plan-compile the jump-ahead tabulation.

    The expensive part of jump-ahead partitioning is the per-slab
    sequential skip past the preceding slabs' ``2·a`` raw draws; the
    plan runs each skip once, snapshots the jumped 624-word state, and
    warm runs just restore the snapshot and generate.  One generator
    walks the stream slab boundary to slab boundary, so compile pays
    O(2n) total skip work, not O(n·slabs).  Generation itself goes
    through :func:`~repro.rng.mt19937.uniform53_into` — the same
    twist/temper/fold bit for bit, through arena-owned buffers.
    Out-of-process workers cannot receive a snapshot that lives in the
    parent's arena, so there each slab skips in its own body
    (:func:`_rng_slab`).
    """
    if n < 0:
        raise ConfigurationError("n must be non-negative")
    out = arena.reserve("result", n)
    if n == 0:
        return lambda: out
    if executor.out_of_process:
        dispatch = arena.adopt(executor.compile_shm(
            _rng_slab, n, bytes_per_item=8,
            sliced={"out": out}, writes=("out",),
            consts={"seed": seed}, tag="rng"))
        return lambda: (dispatch.run(), out)[1]
    slabs = executor.plan(n, 8)
    walker = MT19937(seed)
    cursor = 0
    snaps = []
    for a, b in slabs:
        walker = walker.jumped_copy(DRAWS_PER_DOUBLE * (a - cursor))
        cursor = a
        snap = arena.reserve(f"snap{len(snaps)}", walker.state_size,
                             dtype=np.uint32)
        np.copyto(snap, walker._mt)
        snaps.append((snap, walker._mti))
    wss = []
    for i, (a, b) in enumerate(slabs):
        def _reserve(name, shape, dtype, i=i):
            return arena.reserve(f"{name}{i}", shape, dtype=dtype)
        ws = block_workspace(b - a, reserve=_reserve)
        ws["mt"] = arena.reserve(f"mt{i}", MT19937.state_size,
                                 dtype=np.uint32)
        wss.append(ws)
    dispatch = arena.adopt(executor.compile_shm(
        _rng_slab_planned, n, bytes_per_item=8,
        sliced={"out": out}, writes=("out",),
        per_slab=lambda a, b, i: {"ws": wss[i], "snap_mt": snaps[i][0],
                                  "snap_mti": snaps[i][1]},
        tag="rng"))

    def run() -> np.ndarray:
        dispatch.run()
        return out

    return run


def uniform53_parallel(n: int, seed: int = 5489,
                       executor: SlabExecutor | None = None) -> np.ndarray:
    """``n`` uniform [0, 1) doubles, slab-parallel — the one-shot of
    :func:`compile_uniform53_parallel` — bit-identical to
    ``MT19937(seed).uniform53(n)`` (and hence to the scalar reference)
    for any backend, slab plan or worker count."""
    return one_shot(compile_uniform53_parallel, n, seed,
                    executor=executor)

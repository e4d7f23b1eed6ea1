"""Brownian bridge *advanced* tiers: interleaved RNG and cache-to-cache.

Sec. IV-C2's two advanced optimizations:

* **Interleaved RNG** — instead of materialising the full random array in
  DRAM and streaming it back, generate a cache-sized chunk of normals and
  immediately consume it building a block of bridges; alternate until
  done. The random stream never touches DRAM.
* **Cache-to-cache** — when the caller consumes each bridge immediately
  (e.g. a path-dependent pricer), hand blocks to a consumer callback
  while they are cache-hot instead of writing the full ``(paths, points)``
  result array.

Both produce bit-identical values to the reference construction for the
same logical stream, because blocks partition paths and each path's draws
stay in consumption order.
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...errors import ConfigurationError
from ...arch.spec import ArchSpec
from .bridge import BridgeSchedule
from .vectorized import build_vectorized


def default_block_paths(schedule: BridgeSchedule, llc_bytes: int) -> int:
    """Paths per block such that the block's randoms, its output and
    the build's own state fit in ``llc_bytes`` (the paper's LLC
    chunking rule).  This sizes the *generation* chunk of the
    interleaved tiers; inside it :func:`build_vectorized` builds in
    L2-sized blocks of its own."""
    bytes_per_path = (schedule.randoms_per_path()      # the chunk of normals
                      + 2 * schedule.n_points          # state + scratch
                      + schedule.n_points) * 8         # output block
    block = max(1, llc_bytes // (2 * bytes_per_path))  # half-LLC headroom
    return block


def build_interleaved(schedule: BridgeSchedule, normal_source,
                      n_paths: int, block_paths: int) -> np.ndarray:
    """Build ``n_paths`` bridges, generating normals block by block.

    ``normal_source(n)`` must return ``n`` fresh standard normals (e.g.
    :meth:`repro.rng.NormalGenerator.normals`).
    """
    if n_paths < 1 or block_paths < 1:
        raise ConfigurationError("n_paths and block_paths must be >= 1")
    per_path = schedule.randoms_per_path()
    out = np.empty((n_paths, schedule.n_points), dtype=DTYPE)
    done = 0
    while done < n_paths:
        take = min(block_paths, n_paths - done)
        z = np.asarray(normal_source(take * per_path), dtype=DTYPE)
        if z.shape != (take * per_path,):
            raise ConfigurationError(
                f"normal_source returned shape {z.shape}, wanted "
                f"({take * per_path},)"
            )
        build_vectorized(schedule, z, out=out[done:done + take])
        done += take
    return out


# Each block must be a fresh allocation: the consumer may retain the
# array (tests accumulate blocks), so a reused scratch buffer would
# alias every block it has already been handed.
# repro-lint: disable=R001
def build_cache_to_cache(schedule: BridgeSchedule, normal_source,
                         n_paths: int, block_paths: int, consumer) -> None:
    """Interleaved construction that hands each hot block to ``consumer``
    (a callable taking the ``(block, n_points)`` array) instead of
    accumulating a result — no full-size output ever exists."""
    if n_paths < 1 or block_paths < 1:
        raise ConfigurationError("n_paths and block_paths must be >= 1")
    per_path = schedule.randoms_per_path()
    done = 0
    while done < n_paths:
        take = min(block_paths, n_paths - done)
        z = np.asarray(normal_source(take * per_path), dtype=DTYPE)
        consumer(build_vectorized(schedule, z))
        done += take

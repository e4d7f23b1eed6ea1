"""Brownian-bridge performance model (regenerates Fig. 6).

Tier story (Sec. IV-C):

* *Basic (pragma simd, omp, unroll)* — SIMD cannot be brought to bear
  (the random consumption pattern defeats the vectorizer): scalar
  per-point code with heavy level-loop/indexing overhead. KNC's weaker
  scalar core runs ~25% slower than SNB-EP.
* *Intermediate (SIMD across paths)* — vertical vectorization; both
  chips hit the DRAM stream of randoms + output, so the bars sit at the
  bandwidth bound and their ratio equals the bandwidth ratio.
* *Advanced (interleaved RNG)* — randoms generated into cache chunk by
  chunk; only the output stream remains, halving traffic — the bars are
  write-bandwidth-bound (RNG time itself excluded, as in the paper).
* *Advanced (cache-to-cache)* — output handed hot to the consumer: no
  DRAM traffic at all; issue-bound. The chunking keeps working sets in
  the LLC — KNC's private 512 KB L2 per core, but on SNB-EP the chunk
  only fits in the shared L3, so its loads are L3-resident (the
  ``load_cost_factor`` below), and KNC ends up ~2× faster without FMA
  credit in the core compute, matching the paper's observation.
"""

from __future__ import annotations

from ...arch.cost import ExecutionContext
from ...arch.spec import PLATFORMS, ArchSpec
from ...errors import ConfigurationError
from ...simd.trace import OpTrace
from ..base import KernelModel, OptLevel, Tier

#: Fig. 6 bar labels (stacking order).
TIERS = (
    Tier(OptLevel.BASIC, "Basic (pragma simd, omp, unroll)",
         "scalar construction; SIMD defeated by RNG consumption order"),
    Tier(OptLevel.INTERMEDIATE, "Intermediate (SIMD across paths)",
         "vertical vectorization; randoms streamed from DRAM"),
    Tier(OptLevel.ADVANCED, "Advanced (interleaved RNG)",
         "LLC-chunked RNG generation; only output traffic remains"),
    Tier(OptLevel.ADVANCED, "Advanced (cache-to-cache)",
         "consumer fed hot blocks; no DRAM traffic"),
)


def _traffic(n_steps: int, read_randoms: bool, write_out: bool) -> tuple:
    read = 8 * n_steps if read_randoms else 0
    written = 8 * (n_steps + 1) if write_out else 0
    return read, written


def basic_trace(arch: ArchSpec, n_steps: int = 64,
                n_paths: int = 1024) -> OpTrace:
    """Scalar per-point construction."""
    t = OpTrace(width=1)
    pts = n_steps * n_paths
    t.scalar_ops = 40 * pts          # point math + indexing + level loops
    t.load(6 * pts)
    t.store(2 * pts)
    t.overhead(4 * pts)
    read, written = _traffic(n_steps, True, True)
    t.dram(read=read * n_paths, written=written * n_paths)
    t.items = n_paths
    return t


def _vector_point_trace(arch: ArchSpec, n_steps: int, n_paths: int) -> OpTrace:
    """Common vector core: per point-vector 3 muls + 2 adds (no FMA in
    the bridge compute — Sec. IV-C3), coefficient broadcasts, ping-pong
    loads/stores."""
    w = arch.simd_width_dp
    groups = n_steps * n_paths // w
    t = OpTrace(width=w)
    t.op("mul", 3 * groups)
    t.op("add", 2 * groups)
    t.op("shuffle", 3 * groups)      # w_l / w_r / sig broadcasts
    t.load(6 * groups)
    t.store(2 * groups)
    t.overhead(2 * groups)
    t.items = n_paths
    return t


def intermediate_trace(arch: ArchSpec, n_steps: int = 64,
                       n_paths: int = 1024) -> OpTrace:
    t = _vector_point_trace(arch, n_steps, n_paths)
    read, written = _traffic(n_steps, True, True)
    t.dram(read=read * n_paths, written=written * n_paths)
    return t


def interleaved_trace(arch: ArchSpec, n_steps: int = 64,
                      n_paths: int = 1024) -> OpTrace:
    t = _vector_point_trace(arch, n_steps, n_paths)
    read, written = _traffic(n_steps, False, True)
    t.dram(read=read * n_paths, written=written * n_paths)
    return t


def cache_to_cache_trace(arch: ArchSpec, n_steps: int = 64,
                         n_paths: int = 1024) -> OpTrace:
    return _vector_point_trace(arch, n_steps, n_paths)


def _chunk_ctx(arch: ArchSpec) -> ExecutionContext:
    """LLC-chunked tiers: KNC's chunk lives in its private L2; SNB-EP's
    only fits the shared L3 (256 KB L2 < chunk), so loads cost more."""
    private_l2 = not arch.caches[-1].shared
    return ExecutionContext(unrolled=True,
                            load_cost_factor=1.5 if private_l2 else 3.0)


def build(n_steps: int = 64, n_paths: int = 1024) -> KernelModel:
    """Model ladder on both platforms (Fig. 6 data)."""
    if n_steps < 2:
        raise ConfigurationError("n_steps must be >= 2")
    km = KernelModel(f"brownian_{n_steps}", "paths/s", TIERS)
    for arch in PLATFORMS:
        km.add(TIERS[0], arch, basic_trace(arch, n_steps, n_paths),
               ExecutionContext(unrolled=False, streaming_stores=True))
        km.add(TIERS[1], arch, intermediate_trace(arch, n_steps, n_paths),
               ExecutionContext(unrolled=True))
        km.add(TIERS[2], arch, interleaved_trace(arch, n_steps, n_paths),
               _chunk_ctx(arch))
        km.add(TIERS[3], arch, cache_to_cache_trace(arch, n_steps, n_paths),
               _chunk_ctx(arch))
    return km

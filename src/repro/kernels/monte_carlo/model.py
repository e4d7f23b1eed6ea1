"""Monte-Carlo performance model (regenerates Table II rows 1–2).

Per path point (Listing 5, unrolled and autovectorized): 3 multiplies,
4 adds, a max and one vector ``exp``, plus one 8-byte random load in
STREAM mode. In computed-RNG mode each point additionally pays the full
normal-generation pipeline (uniform twister + Box-Muller transform),
which dominates — exactly the 5–6× stream/computed ratio of Table II.

The stream array is shared across options and cache/L2-resident per the
paper's setup, so DRAM traffic is negligible at the chip level and both
modes are compute-bound on both platforms (Sec. IV-D1).
"""

from __future__ import annotations

from ...arch.cost import ExecutionContext
from ...arch.spec import PLATFORMS, ArchSpec
from ...errors import ConfigurationError
from ...rng.counting import normal_trace
from ...simd.trace import OpTrace
from ..base import KernelModel, OptLevel, Tier

#: Table II row labels.
TIERS = (
    Tier(OptLevel.BASIC, "options/sec (stream RNG)",
         "pre-generated normals streamed from the shared array"),
    Tier(OptLevel.BASIC, "options/sec (comp. RNG)",
         "normals generated on the fly per option"),
)

#: Table II path length.
PATH_LENGTH = 262_144


def _path_point_trace(arch: ArchSpec, n_points: int) -> OpTrace:
    """The Listing 5 inner-loop body, vectorized and unrolled."""
    w = arch.simd_width_dp
    groups = n_points // w
    t = OpTrace(width=w)
    t.op("mul", 3 * groups)
    t.op("add", 4 * groups)
    t.op("max", groups)
    t.transcendental("exp", n_points)
    t.overhead(groups // 4)   # unrolled x4
    return t


def stream_trace(arch: ArchSpec, n_options: int = 16,
                 n_paths: int = PATH_LENGTH) -> OpTrace:
    """STREAM mode: one random load per point, array L2-resident."""
    if n_options < 1 or n_paths < 1:
        raise ConfigurationError("n_options and n_paths must be >= 1")
    pts = n_options * n_paths
    t = _path_point_trace(arch, pts)
    t.load(pts // arch.simd_width_dp)
    t.items = n_options
    return t


def computed_trace(arch: ArchSpec, n_options: int = 16,
                   n_paths: int = PATH_LENGTH,
                   method: str = "box_muller") -> OpTrace:
    """Computed-RNG mode: generation pipeline fused into the path loop."""
    if n_options < 1 or n_paths < 1:
        raise ConfigurationError("n_options and n_paths must be >= 1")
    pts = n_options * n_paths
    t = _path_point_trace(arch, pts)
    t.merge(normal_trace(pts, arch.simd_width_dp, method))
    t.items = n_options
    return t


def build(n_options: int = 16, n_paths: int = PATH_LENGTH) -> KernelModel:
    """Model both Table II operating modes on both platforms."""
    km = KernelModel("monte_carlo", "options/s", TIERS)
    ctx = ExecutionContext(unrolled=True)
    for arch in PLATFORMS:
        km.add(TIERS[0], arch, stream_trace(arch, n_options, n_paths), ctx)
        km.add(TIERS[1], arch, computed_trace(arch, n_options, n_paths), ctx)
    return km

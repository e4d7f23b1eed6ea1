"""RNG throughput model (regenerates Table II rows 3–4).

Rates for raw normally-distributed and uniform double generation on both
platforms, from the same per-number instruction accounting the
Monte-Carlo computed-RNG mode uses (:mod:`repro.rng.counting`).
"""

from __future__ import annotations

from ...arch.cost import ExecutionContext
from ...arch.spec import PLATFORMS
from ...errors import ConfigurationError
from ...rng.counting import normal_trace, uniform_trace
from ..base import KernelModel, OptLevel, Tier

#: Table II row labels.
TIERS = (
    Tier(OptLevel.ADVANCED, "normally-dist. DP RNG/sec",
         "MT uniform + Box-Muller transform, fully vectorized"),
    Tier(OptLevel.ADVANCED, "uniform DP RNG/sec",
         "MT 53-bit uniform doubles, fully vectorized"),
)

_BATCH = 1 << 20


def build(n: int = _BATCH, method: str = "box_muller") -> KernelModel:
    """Modeled generation rates (numbers/second) on both platforms."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    km = KernelModel("rng", "numbers/s", TIERS)
    ctx = ExecutionContext(unrolled=True)
    for arch in PLATFORMS:
        km.add(TIERS[0], arch,
               normal_trace(n, arch.simd_width_dp, method), ctx)
        km.add(TIERS[1], arch, uniform_trace(n, arch.simd_width_dp), ctx)
    return km

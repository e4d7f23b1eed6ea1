"""Architecture specifications (paper Table I).

An :class:`ArchSpec` carries every machine parameter the cost model and
roofline need: core/socket/SMT topology, clock, SIMD width, FMA support,
issue model, cache hierarchy and sustained STREAM bandwidth. The two
presets :data:`SNB_EP` and :data:`KNC` are seeded verbatim from Table I of
the paper and validated against its stated peak-flops figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ConfigurationError


@dataclass(frozen=True)
class CacheSpec:
    """One cache level.

    Sizes are bytes. ``shared`` caches are per chip (all cores hit the
    same capacity); private caches are per core.
    """

    name: str
    size: int
    line_size: int = 64
    associativity: int = 8
    shared: bool = False
    latency_cycles: int = 4

    def __post_init__(self):
        if self.size <= 0 or self.line_size <= 0 or self.associativity <= 0:
            raise ConfigurationError(f"cache {self.name}: sizes must be positive")
        n_lines = self.size // self.line_size
        if n_lines % self.associativity != 0:
            raise ConfigurationError(
                f"cache {self.name}: {n_lines} lines not divisible by "
                f"associativity {self.associativity}"
            )

    @property
    def n_sets(self) -> int:
        return (self.size // self.line_size) // self.associativity


@dataclass(frozen=True)
class ArchSpec:
    """A machine model parameterisation.

    Attributes mirror Table I plus the micro-architectural facts from
    Sec. III-A the cost model needs:

    - ``out_of_order``: SNB-EP dynamically extracts ILP; KNC's in-order
      pipeline exposes dependency stalls unless the code is unrolled.
    - ``fma``: KNC fuses multiply+add in one instruction; SNB-EP instead
      issues one multiply and one add per cycle on separate ports
      (``mul_add_ports``), reaching the same 2-flops/cycle/lane peak only
      when the mul/add mix is balanced.
    - ``simd_width_dp``: double-precision lanes per vector register
      (AVX: 4, KNC: 8).
    """

    name: str
    codename: str
    sockets: int
    cores_per_socket: int
    smt: int
    clock_ghz: float
    simd_width_dp: int
    fma: bool
    mul_add_ports: bool
    out_of_order: bool
    caches: tuple
    dram_gb: float
    stream_bw_gbs: float
    #: double-precision Gflop/s claimed in Table I, used as a cross-check
    table1_dp_gflops: float
    #: single-precision Gflop/s from Table I (informational)
    table1_sp_gflops: float
    #: average per-element cycle cost of a vectorized transcendental
    #: (exp/log/erf) on this machine's native math library.
    transcendental_cycles_per_elem: float = 8.0
    #: extra per-access instruction cost of a gather/scatter, expressed as
    #: cachelines touched per vector memory access in the worst (AOS) case.
    gather_max_lines: int = 0
    #: architectural vector registers available to the register allocator
    #: (AVX: 16 ymm, KNC: 32 zmm) — bounds the binomial register-tile size.
    vector_registers: int = 16

    def __post_init__(self):
        if self.sockets <= 0 or self.cores_per_socket <= 0 or self.smt <= 0:
            raise ConfigurationError(f"{self.name}: topology counts must be positive")
        if self.clock_ghz <= 0:
            raise ConfigurationError(f"{self.name}: clock must be positive")
        if self.simd_width_dp not in (1, 2, 4, 8, 16):
            raise ConfigurationError(
                f"{self.name}: unsupported DP SIMD width {self.simd_width_dp}"
            )
        if self.fma and self.mul_add_ports:
            raise ConfigurationError(
                f"{self.name}: fma and separate mul/add ports are exclusive here"
            )
        if not self.caches:
            raise ConfigurationError(f"{self.name}: need at least one cache level")
        object.__setattr__(
            self,
            "gather_max_lines",
            self.gather_max_lines or self.simd_width_dp,
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def total_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def flops_per_cycle_per_core_dp(self) -> float:
        """Peak DP flops per cycle per core.

        Both FMA (one fused op doing 2 flops per lane) and dual mul/add
        ports (two instructions, one flop per lane each) peak at
        ``2 * simd_width_dp``; a machine with neither peaks at one flop
        per lane per cycle.
        """
        factor = 2.0 if (self.fma or self.mul_add_ports) else 1.0
        return factor * self.simd_width_dp

    @property
    def peak_dp_gflops(self) -> float:
        return (
            self.total_cores * self.clock_ghz * self.flops_per_cycle_per_core_dp
        )

    @property
    def peak_sp_gflops(self) -> float:
        return 2.0 * self.peak_dp_gflops

    def cache(self, name: str) -> CacheSpec:
        for c in self.caches:
            if c.name == name:
                return c
        raise ConfigurationError(f"{self.name}: no cache level named {name!r}")

    @property
    def llc(self) -> CacheSpec:
        """Last-level cache (the final entry of ``caches``)."""
        return self.caches[-1]

    @property
    def llc_capacity_per_core(self) -> int:
        """Effective LLC bytes available to one core."""
        c = self.llc
        return c.size // self.total_cores if c.shared else c.size

    def validate_against_table1(self, rel_tol: float = 0.02) -> None:
        """Check the derived peak against the Table I figure.

        Raises :class:`ConfigurationError` if the derived DP peak differs
        from the published number by more than ``rel_tol``.
        """
        derived = self.peak_dp_gflops
        published = self.table1_dp_gflops
        if not math.isclose(derived, published, rel_tol=rel_tol):
            raise ConfigurationError(
                f"{self.name}: derived peak {derived:.1f} GF/s differs from "
                f"Table I value {published:.1f} GF/s by more than {rel_tol:.0%}"
            )

    def describe(self) -> str:
        """Human-readable one-block summary (Table I row for this arch)."""
        cache_str = " / ".join(
            f"{c.name}:{c.size // 1024}KB{'(shared)' if c.shared else ''}"
            for c in self.caches
        )
        return (
            f"{self.name} ({self.codename}): "
            f"{self.sockets}x{self.cores_per_socket}x{self.smt} threads @ "
            f"{self.clock_ghz:.2f} GHz, {self.simd_width_dp}-wide DP SIMD"
            f"{' +FMA' if self.fma else ''}, "
            f"{self.peak_dp_gflops:.0f} DP GF/s, "
            f"{self.stream_bw_gbs:.0f} GB/s STREAM, caches {cache_str}"
        )


# ----------------------------------------------------------------------
# Table I presets
# ----------------------------------------------------------------------

#: Intel Xeon E5-2680 ("Sandy Bridge EP") — Table I column 1.
SNB_EP = ArchSpec(
    name="SNB-EP",
    codename="Sandy Bridge",
    sockets=2,
    cores_per_socket=8,
    smt=2,
    clock_ghz=2.7,
    simd_width_dp=4,
    fma=False,
    mul_add_ports=True,
    out_of_order=True,
    caches=(
        CacheSpec("L1", 32 * 1024, latency_cycles=4),
        CacheSpec("L2", 256 * 1024, latency_cycles=12),
        CacheSpec("L3", 20 * 1024 * 1024, shared=True, associativity=16,
                  latency_cycles=30),
    ),
    dram_gb=128.0,
    stream_bw_gbs=76.0,
    table1_dp_gflops=346.0,
    table1_sp_gflops=691.0,
    transcendental_cycles_per_elem=6.0,
    vector_registers=16,
)

#: Intel Xeon Phi ("Knights Corner") coprocessor — Table I column 2.
KNC = ArchSpec(
    name="KNC",
    codename="Knights Corner",
    sockets=1,
    cores_per_socket=60,
    smt=4,
    clock_ghz=1.09,
    simd_width_dp=8,
    fma=True,
    mul_add_ports=False,
    out_of_order=False,
    caches=(
        CacheSpec("L1", 32 * 1024, latency_cycles=3),
        CacheSpec("L2", 512 * 1024, latency_cycles=24),
    ),
    dram_gb=4.0,
    stream_bw_gbs=150.0,
    table1_dp_gflops=1063.0,
    table1_sp_gflops=2127.0,
    transcendental_cycles_per_elem=9.0,
    vector_registers=32,
)

#: Both evaluation platforms, in the paper's presentation order.
PLATFORMS = (SNB_EP, KNC)


def platform_by_name(name: str) -> ArchSpec:
    """Look up one of the paper's platforms by name (case-insensitive)."""
    for p in PLATFORMS:
        if p.name.lower() == name.lower():
            return p
    raise ConfigurationError(
        f"unknown platform {name!r}; known: {[p.name for p in PLATFORMS]}"
    )

"""Crank-Nicolson performance model (regenerates Fig. 8).

Workload: American puts, 256 underlying prices × 1000 time steps, TLP
across options, SIMD within one option's GSOR (Sec. IV-E2). Tier story:

* *Basic (Reference)* — scalar GSOR dominates (~90% of time); the
  explicit half-step and payoff refresh autovectorize. Neither chip gets
  SIMD on the solver, so the whole-chip ratio is near the scalar-core ×
  core-count balance: KNC only ~1.3× faster.
* *Advanced (Manual SIMD for implicit step)* — the Fig. 7 wavefront:
  convergence loop unrolled by W, lanes at spatial stride 2 ⇒ every
  access is a gather/scatter across ~span/64 cachelines.
* *Advanced (Data structure transform)* — B/G/U split into parity
  planes: every wave access becomes a unit-stride vector load/store; the
  residual gap to W× SIMD scaling is the physical reordering plus the
  already-vectorized explicit fraction (paper: 3.1×/4.1× net SIMD gain).

The sweep count per time step is fixed at a representative 8 (the
adaptive ω keeps it in the high single digits across the workload).
"""

from __future__ import annotations

from ...arch.cost import ExecutionContext
from ...arch.spec import PLATFORMS, ArchSpec
from ...errors import ConfigurationError
from ...simd.trace import OpTrace
from ..base import KernelModel, OptLevel, Tier

#: Fig. 8 bar labels.
TIERS = (
    Tier(OptLevel.REFERENCE, "Basic (Reference)",
         "scalar GSOR; explicit step autovectorized"),
    Tier(OptLevel.INTERMEDIATE, "Advanced (Manual SIMD for implicit step)",
         "wavefront PSOR, strided gathers"),
    Tier(OptLevel.ADVANCED, "Advanced (Data structure transform for SIMD)",
         "parity-plane reorder: unit-stride wavefront"),
)

#: Representative PSOR sweeps per time step under the ω heuristic.
SWEEPS_PER_STEP = 8


def _explicit_and_payoff(t: OpTrace, arch: ArchSpec, n_points: int,
                         n_steps: int, n_options: int) -> None:
    """The ~10% the paper leaves to the autovectorizer: per step, a
    3-point stencil pass and a payoff refresh with one exp per point."""
    w = arch.simd_width_dp
    groups = n_points * n_steps * n_options // w
    t.transcendental("exp", n_points * n_steps * n_options)
    t.op("mul", 3 * groups)
    t.op("add", 2 * groups)
    t.load(2 * groups)
    t.store(2 * groups)


def _updates(n_points: int, n_steps: int, n_options: int) -> int:
    return (n_points - 2) * SWEEPS_PER_STEP * n_steps * n_options


def reference_trace(arch: ArchSpec, n_points: int = 256,
                    n_steps: int = 1000, n_options: int = 16) -> OpTrace:
    """Scalar GSOR: per update ~8 scalar flops, 4 loads, 1 store."""
    t = OpTrace(width=1)
    ups = _updates(n_points, n_steps, n_options)
    t.scalar_ops = 9 * ups
    # The sweep's u[j] -> u[j+1] chain: ~3 latency-bound ops per update.
    t.dependent_ops = 3 * ups
    t.load(4 * ups)
    t.store(ups)
    t.overhead(3 * ups)
    # Explicit/payoff fraction runs vectorized even at this tier, but a
    # scalar-width trace cannot mix widths; its cost is folded in as
    # equivalent scalar work (~10% — Sec. IV-E1).
    t.scalar_ops += 2 * n_points * n_steps * n_options
    t.transcendental("exp", n_points * n_steps * n_options // 4)
    t.items = n_options
    return t


def _gather_lines(arch: ArchSpec) -> int:
    """Cachelines per gathered access: W lanes at stride 2 doubles span
    16·(W−1)+8 bytes."""
    span = 16 * (arch.simd_width_dp - 1) + 8
    return max(1, -(-span // 64))


def wavefront_trace(arch: ArchSpec, n_points: int = 256,
                    n_steps: int = 1000, n_options: int = 16) -> OpTrace:
    """Manual SIMD: per update-vector 4 gathers (u±1, b, g) + 1 scatter,
    ~8 vector flops."""
    w = arch.simd_width_dp
    t = OpTrace(width=w)
    vecs = _updates(n_points, n_steps, n_options) // w
    lines = _gather_lines(arch)
    t.gather(4 * vecs, lines_per_access=lines)
    t.scatter(vecs, lines_per_access=lines)
    t.op("mul", 2 * vecs)
    t.op("add", 3 * vecs)
    t.op("sub", 2 * vecs)
    t.op("max", vecs)
    t.overhead(2 * vecs)
    _explicit_and_payoff(t, arch, n_points, n_steps, n_options)
    t.items = n_options
    return t


def transformed_trace(arch: ArchSpec, n_points: int = 256,
                      n_steps: int = 1000, n_options: int = 16) -> OpTrace:
    """Data reorder: gathers become unit-stride loads/stores; add the
    parity split/merge passes per implicit solve."""
    w = arch.simd_width_dp
    t = OpTrace(width=w)
    vecs = _updates(n_points, n_steps, n_options) // w
    t.load(4 * vecs)
    t.store(vecs)
    t.op("mul", 2 * vecs)
    t.op("add", 3 * vecs)
    t.op("sub", 2 * vecs)
    t.op("max", vecs)
    t.overhead(2 * vecs)
    # Physical reordering: split+merge of U plus split of B and G per
    # step — ~4 copy passes over the lattice.
    copy_groups = 4 * n_points * n_steps * n_options // w
    t.load(copy_groups)
    t.store(copy_groups)
    t.op("shuffle", 2 * copy_groups)
    _explicit_and_payoff(t, arch, n_points, n_steps, n_options)
    t.items = n_options
    return t


def build(n_points: int = 256, n_steps: int = 1000,
          n_options: int = 16) -> KernelModel:
    """Model ladder on both platforms (Fig. 8 data)."""
    if n_points < 8 or n_steps < 1:
        raise ConfigurationError("invalid lattice dimensions")
    km = KernelModel("crank_nicolson", "options/s", TIERS)
    for arch in PLATFORMS:
        km.add(TIERS[0], arch,
               reference_trace(arch, n_points, n_steps, n_options),
               ExecutionContext(unrolled=False))
        km.add(TIERS[1], arch,
               wavefront_trace(arch, n_points, n_steps, n_options),
               ExecutionContext(unrolled=True))
        km.add(TIERS[2], arch,
               transformed_trace(arch, n_points, n_steps, n_options),
               ExecutionContext(unrolled=True))
    return km

"""Binomial-tree performance model (regenerates Fig. 5).

Tier story (Sec. IV-B):

* *Basic (Reference)* — inner ``j`` loop autovectorized: per node-vector
  2 muls + 1 add, an aligned and an unaligned load (``Call[j+1]``), one
  store; per-row loop overhead. All data L1-resident (one option's tree
  is ~8 KB).
* *Intermediate (SIMD across options)* — one option per lane: unaligned
  loads gone, but the working set grows by the vector width and spills
  L1, so loads come from L2 — the two effects nearly cancel ("hardly
  improves performance on either platform").
* *Advanced (Register Tiling)* — Listing 3: one load + one store per TS
  time steps; arithmetic becomes the mul+fma pipeline. On KNC the
  pipeline's serial fma chain stalls the in-order core...
* *Basic (Unrolled)* — ...until the inner loop is unrolled, which breaks
  the back-to-back dependencies and removes most loop overhead: +~1.4x
  on KNC, ~nothing on the out-of-order SNB-EP.

The compute-bound line is ``peak · efficiency / (3N(N+1)/2)`` flops per
option with the 3-flop-per-node mul/add mix capping port balance at 3/4.
"""

from __future__ import annotations

from ...arch.cache import working_set_fits
from ...arch.cost import ExecutionContext
from ...arch.roofline import binomial_resource, roofline
from ...arch.spec import PLATFORMS, ArchSpec
from ...errors import ConfigurationError
from ...simd.trace import OpTrace
from ..base import KernelModel, OptLevel, Tier
from .tiled import default_tile_size

#: Fig. 5 bar labels (stacking order).
TIERS = (
    Tier(OptLevel.BASIC, "Basic (Reference)",
         "autovectorized inner loop over tree nodes"),
    Tier(OptLevel.INTERMEDIATE, "Intermediate (SIMD Across options)",
         "one option per SIMD lane"),
    Tier(OptLevel.ADVANCED, "Advanced (Register Tiling)",
         "Listing 3 pipeline, one load+store per TS steps"),
    Tier(OptLevel.BASIC, "Basic (Unrolled)",
         "inner loop unrolled: dependency chains broken"),
)


def _nodes(n_steps: int) -> int:
    return n_steps * (n_steps + 1) // 2


def reference_trace(arch: ArchSpec, n_steps: int, n_options: int = 64) -> OpTrace:
    """Basic (Reference): inner-loop vectorization over nodes."""
    w = arch.simd_width_dp
    groups = _nodes(n_steps) // w * n_options
    t = OpTrace(width=w)
    t.op("mul", 2 * groups)
    t.op("add", groups)
    t.load(groups)                       # Call[j]
    t.load(groups, aligned=False)        # Call[j+1]
    t.store(groups)
    t.overhead(2 * groups)               # per-vector loop control
    t.items = n_options
    return t


def simd_across_trace(arch: ArchSpec, n_steps: int,
                      n_options: int = 64) -> OpTrace:
    """Intermediate: one option per lane; aligned accesses, larger
    working set."""
    w = arch.simd_width_dp
    groups = _nodes(n_steps) * n_options // w
    t = OpTrace(width=w)
    t.op("mul", 2 * groups)
    t.op("add", groups)
    t.load(2 * groups)
    t.store(groups)
    t.overhead(groups)
    t.items = n_options
    return t


def tiled_trace(arch: ArchSpec, n_steps: int, n_options: int = 64,
                ts: int | None = None, unrolled: bool = False) -> OpTrace:
    """Advanced: register tiling (± unrolling)."""
    ts = ts or default_tile_size(arch.vector_registers)
    w = arch.simd_width_dp
    node_groups = _nodes(n_steps) * n_options // w
    t = OpTrace(width=w)
    # Pipeline stage: m2 = pu*m1 + pd*Tile[j] — a mul and a dependent fma.
    t.op("mul", node_groups)
    t.op("fma", node_groups, dependent=not unrolled)
    # One load + one store per Call entry per TS steps, plus the TS
    # triangle-init loads per tile block (the triangle reduction itself
    # stays in registers).
    mem_groups = (node_groups // ts
                  + ts * (n_steps // ts) * n_options // w)
    t.load(mem_groups)
    t.store(mem_groups)
    t.overhead(node_groups if not unrolled else node_groups // 8)
    t.items = n_options
    return t


def working_set_bytes(arch: ArchSpec, n_steps: int) -> int:
    """Per-core Call-array working set of the SIMD-across-options tiers."""
    return arch.simd_width_dp * (n_steps + 1) * 8


def _ctx(arch: ArchSpec, n_steps: int, unrolled: bool) -> ExecutionContext:
    spill = not working_set_fits(arch, working_set_bytes(arch, n_steps), "L1")
    return ExecutionContext(
        unrolled=unrolled,
        load_cost_factor=1.5 if spill else 1.0,
    )


def build(n_steps: int = 1024, n_options: int = 64) -> KernelModel:
    """Model ladder on both platforms for one Fig. 5 group."""
    if n_steps < 2:
        raise ConfigurationError("n_steps must be >= 2")
    km = KernelModel(f"binomial_{n_steps}", "options/s", TIERS)
    for arch in PLATFORMS:
        km.add(TIERS[0], arch, reference_trace(arch, n_steps, n_options),
               ExecutionContext(unrolled=False))
        km.add(TIERS[1], arch, simd_across_trace(arch, n_steps, n_options),
               _ctx(arch, n_steps, unrolled=False))
        km.add(TIERS[2], arch, tiled_trace(arch, n_steps, n_options,
                                           unrolled=False),
               _ctx(arch, n_steps, unrolled=False))
        km.add(TIERS[3], arch, tiled_trace(arch, n_steps, n_options,
                                           unrolled=True),
               _ctx(arch, n_steps, unrolled=True))
    return km


def compute_bound(arch: ArchSpec, n_steps: int) -> float:
    """The Fig. 5 horizontal line (options/s)."""
    return roofline(arch, binomial_resource(n_steps)).compute_bound

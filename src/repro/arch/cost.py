"""Cycle cost model: turns an :class:`~repro.simd.trace.OpTrace` into time.

This is the reproduction's stand-in for running compiled code on SNB-EP
and KNC silicon. It applies the issue rules of Sec. III-A:

* **SNB-EP** — out-of-order, superscalar; separate multiply and add ports
  (one 4-wide mul *and* one 4-wide add per cycle), two loads + one store
  per cycle, no hardware gather (AVX): a gather is synthesised from scalar
  loads + inserts. OOO execution hides dependency chains, so no stall term.
* **KNC** — in-order, one vector instruction per cycle with FMA; hardware
  gather that iterates over the cachelines touched; a single thread cannot
  issue to the VPU in back-to-back cycles, so ≥2 SMT threads are needed to
  reach full issue rate; dependency chains stall the pipe unless unrolling
  or SMT hides them.

Transcendental costs are per *element* and depend on whether the code is
vectorized (SVML-style inlined vector math) or scalar (libm fallback) —
the dominant effect behind the Black-Scholes reference/optimized gap.

The constants here are small in number, architecturally motivated, and
documented inline; they are fixed once, globally, and every figure in
EXPERIMENTS.md is produced from the same set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..simd.trace import OpTrace
from .spec import SNB_EP, ArchSpec

#: Per-element cycle costs of vectorized (SVML-style) transcendentals,
#: keyed by function. Values are calibrated to the paper's Black-Scholes
#: and Monte-Carlo operating points and sit well within the published
#: SVML ranges for AVX / KNC vector math.
VECTOR_TRANSCENDENTAL_CYCLES = {
    # function: (SNB-EP-class OOO cost, KNC-class in-order cost)
    # exp/log anchor on the Monte-Carlo path-integration rates of
    # Table II; erf/cnd anchor on the Black-Scholes operating points of
    # Fig. 4; sin/cos on the normal-RNG rates of Table II.
    "exp": (3.5, 2.0),
    "log": (3.5, 2.0),
    "erf": (7.0, 11.0),
    "cnd": (12.0, 13.0),
    "invcnd": (14.0, 15.0),
    "sin": (9.0, 8.0),
    "cos": (9.0, 8.0),
    "pow": (14.0, 15.0),
    "recip": (2.0, 1.5),
    "rsqrt": (2.0, 1.5),
}

#: Scalar (libm) fallback multiplier over the vectorized per-element cost.
#: An OOO core overlaps much of a scalar libm call (~3.5x); the in-order
#: KNC core pays the full serial latency of scalar libm (~5.5x over its
#: inlined vector math) — this is what collapses un-vectorized
#: transcendental-heavy kernels on KNC (Sec. IV-A3).
SCALAR_TRANSCENDENTAL_FACTOR_OOO = 3.5
SCALAR_TRANSCENDENTAL_FACTOR_INORDER = 5.5

#: Long-latency vector ops: reciprocal throughput in cycles per instruction.
DIV_CYCLES = {"ooo": 22.0, "inorder": 8.0}   # KNC emulates via rsqrt/NR seq
SQRT_CYCLES = {"ooo": 20.0, "inorder": 8.0}

#: Vector ALU result latency (cycles) used for in-order dependency stalls.
INORDER_VEC_LATENCY = 4.0

#: Extra issue cost of an unaligned vector load: an OOO/AVX core replays
#: cacheline-splitting loads (~2 extra cycles); KNC synthesises one with a
#: vloadunpacklo/hi pair (1 extra instruction).
UNALIGNED_EXTRA = {"ooo": 2.0, "inorder": 1.0}

#: Cycles per cacheline touched by a gather/scatter.
GATHER_CYCLES_PER_LINE_HW = 2.0    # KNC hardware gather loop
GATHER_CYCLES_PER_LINE_SW = 3.0    # AVX software gather (load+insert)


@dataclass(frozen=True)
class ExecutionContext:
    """How the code runs: knobs that change cycle accounting without
    changing the trace.

    Attributes
    ----------
    unrolled:
        The inner loop was unrolled enough to break back-to-back
        dependencies (paper: +1.4x on KNC for binomial, ~nothing on SNB).
    smt_threads:
        Hardware threads resident per core (defaults to the arch's SMT).
    streaming_stores:
        DRAM store traffic skips read-for-ownership.
    load_cost_factor:
        Multiplier on load issue cost when the working set spills the L1
        (L2-resident streams sustain fewer loads per cycle).
    """

    unrolled: bool = False
    smt_threads: int | None = None
    streaming_stores: bool = True
    load_cost_factor: float = 1.0


@dataclass
class CostBreakdown:
    """Cycle/time decomposition returned by the model, per core.

    ``overlap_mem`` encodes the issue model: an out-of-order core's load
    ports run in parallel with its ALU ports, so memory issue hides under
    arithmetic (total takes the max); KNC's vector loads share the vector
    pipe, so they add.
    """

    arith_cycles: float = 0.0
    mem_cycles: float = 0.0
    gather_cycles: float = 0.0
    transcendental_cycles: float = 0.0
    overhead_cycles: float = 0.0
    stall_cycles: float = 0.0
    overlap_mem: bool = False

    @property
    def total_cycles(self) -> float:
        alu = self.arith_cycles + self.transcendental_cycles
        issue = max(alu, self.mem_cycles) if self.overlap_mem \
            else alu + self.mem_cycles
        return (issue + self.gather_cycles + self.overhead_cycles
                + self.stall_cycles)


class CostModel:
    """Maps traces to cycles/time/throughput on one architecture."""

    def __init__(self, arch: ArchSpec):
        self.arch = arch
        self._class = "ooo" if arch.out_of_order else "inorder"

    # ------------------------------------------------------------------
    # Per-core compute cycles
    # ------------------------------------------------------------------
    def compute_cycles(self, trace: OpTrace,
                       ctx: ExecutionContext = ExecutionContext()) -> CostBreakdown:
        """Cycles one core spends executing the trace's instructions,
        ignoring DRAM bandwidth (which :meth:`seconds` overlays)."""
        a = self.arch
        ops = trace.vector_ops
        bd = CostBreakdown(overlap_mem=a.out_of_order)

        divs = ops.get("div", 0)
        sqrts = ops.get("sqrt", 0)
        if a.out_of_order and a.mul_add_ports:
            # Dual-port issue: muls and adds overlap; data-movement ops go
            # to a third port and largely overlap too (charge half).
            fmas = ops.get("fma", 0)
            port_mul = ops.get("mul", 0) + fmas + ops.get("cvt", 0)
            port_add = (ops.get("add", 0) + ops.get("sub", 0) + fmas
                        + ops.get("max", 0) + ops.get("min", 0)
                        + ops.get("cmp", 0))
            port_mov = 0.5 * (ops.get("mov", 0) + ops.get("blend", 0)
                              + ops.get("shuffle", 0))
            bd.arith_cycles = max(port_mul, port_add) + port_mov
        elif a.out_of_order and a.fma:
            # Haswell-class what-if machine: two symmetric FMA-capable
            # ports — any arithmetic op takes one slot on either port.
            slots = sum(ops.values()) - divs - sqrts
            bd.arith_cycles = slots / 2.0
        else:
            # Single in-order vector pipe: one slot each; FMA is one.
            slots = sum(ops.values()) - divs - sqrts
            bd.arith_cycles = float(slots)
        bd.arith_cycles += divs * DIV_CYCLES[self._class]
        bd.arith_cycles += sqrts * SQRT_CYCLES[self._class]
        # Scalar ALU: an OOO core sustains ~3 scalar ops/cycle; KNC pairs
        # scalar ops across its U/V pipes (~2/cycle).
        bd.arith_cycles += trace.scalar_ops * (0.34 if a.out_of_order else 0.5)

        # Contiguous memory instructions.
        if a.out_of_order:
            bd.mem_cycles = (trace.loads * ctx.load_cost_factor / 2.0
                             + trace.stores)
        else:
            bd.mem_cycles = (trace.loads * ctx.load_cost_factor
                             + trace.stores)
        bd.mem_cycles += trace.unaligned_loads * UNALIGNED_EXTRA[self._class]

        # Irregular accesses: per cacheline touched.
        per_line = (GATHER_CYCLES_PER_LINE_HW if not a.out_of_order
                    else GATHER_CYCLES_PER_LINE_SW)
        bd.gather_cycles = (trace.gather_lines + trace.scatter_lines) * per_line

        # Transcendentals.
        scalar_factor = 1.0
        if trace.width == 1:
            scalar_factor = (SCALAR_TRANSCENDENTAL_FACTOR_OOO if a.out_of_order
                             else SCALAR_TRANSCENDENTAL_FACTOR_INORDER)
        col = 0 if a.out_of_order else 1
        for func, elems in trace.transcendentals.items():
            base = VECTOR_TRANSCENDENTAL_CYCLES[func][col]
            bd.transcendental_cycles += elems * base * scalar_factor

        # Loop/address overhead: an OOO front-end absorbs most of it.
        bd.overhead_cycles = trace.overhead_instrs * (
            0.25 if a.out_of_order else 1.0
        )

        # Dependency-chain stalls.
        smt = ctx.smt_threads or a.smt
        if not a.out_of_order and not ctx.unrolled:
            # In-order: back-to-back vector deps stall unless unrolling
            # or SMT threads fill the latency slots.
            hide = max(1.0, min(float(smt), INORDER_VEC_LATENCY))
            bd.stall_cycles = (
                trace.dependent_ops * (INORDER_VEC_LATENCY - 1.0) / hide
            )
        elif a.out_of_order and trace.width == 1:
            # A scalar loop-carried chain (e.g. the GSOR sweep) is
            # latency-bound even out of order — renaming cannot remove a
            # true dependence; only SMT overlaps another context.
            bd.stall_cycles = (
                trace.dependent_ops * INORDER_VEC_LATENCY / max(1, smt)
            )

        # KNC's front-end needs >=2 threads to saturate the vector pipe.
        if not a.out_of_order:
            smt = ctx.smt_threads or a.smt
            if smt < 2:
                bd.arith_cycles *= 2.0
                bd.mem_cycles *= 2.0
        return bd

    # ------------------------------------------------------------------
    # Whole-chip time / throughput
    # ------------------------------------------------------------------
    def seconds(self, trace: OpTrace, ctx: ExecutionContext = ExecutionContext(),
                cores: int | None = None) -> float:
        """Wall time for the whole trace on ``cores`` cores: compute and
        DRAM streams overlap, so time is the max of the two."""
        a = self.arch
        if cores is None:
            cores = a.total_cores
        if cores <= 0 or cores > a.total_cores:
            raise ConfigurationError(
                f"cores must be in [1, {a.total_cores}], got {cores}"
            )
        bd = self.compute_cycles(trace, ctx)
        compute_s = bd.total_cycles / (a.clock_ghz * 1e9) / cores
        rfo = 0 if ctx.streaming_stores else trace.bytes_written
        dram_bytes = trace.bytes_read + trace.bytes_written + rfo + trace.rfo_bytes
        memory_s = dram_bytes / (a.stream_bw_gbs * 1e9)
        return max(compute_s, memory_s)

    def throughput(self, trace: OpTrace,
                   ctx: ExecutionContext = ExecutionContext(),
                   cores: int | None = None) -> float:
        """Items per second for the trace's workload on the whole chip."""
        if trace.items <= 0:
            raise ConfigurationError("trace has no item count")
        return trace.items / self.seconds(trace, ctx, cores)

    def is_bandwidth_bound(self, trace: OpTrace,
                           ctx: ExecutionContext = ExecutionContext()) -> bool:
        """True when the DRAM stream, not compute, limits the whole chip."""
        a = self.arch
        bd = self.compute_cycles(trace, ctx)
        compute_s = bd.total_cycles / (a.clock_ghz * 1e9) / a.total_cores
        memory_s = trace.dram_bytes / (a.stream_bw_gbs * 1e9)
        return memory_s > compute_s


def cycles_per_item(trace: OpTrace, arch: ArchSpec,
                    ctx: ExecutionContext = ExecutionContext()) -> float:
    """Convenience: per-core cycles per work item for a trace."""
    if trace.items <= 0:
        raise ConfigurationError("trace has no item count")
    return CostModel(arch).compute_cycles(trace, ctx).total_cycles / trace.items

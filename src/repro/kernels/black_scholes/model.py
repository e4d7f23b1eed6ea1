"""Black-Scholes performance model (regenerates Fig. 4).

Synthesises per-tier instruction traces from the kernel's actual
operation mix and lets the cost model produce SNB-EP/KNC throughput.
Tier story (Sec. IV-A3):

* *Basic (Reference)* — AOS data. On SNB-EP the compiler vectorizes with
  software gathers (4 lanes spread over few cachelines; superscalar core
  absorbs the overhead). On KNC the gathered code carries >10× the
  instructions — modeled as effectively scalar execution with scalar
  libm transcendentals, which is what the measured 3×-slower-than-SNB
  figure corresponds to.
* *Intermediate (AOS→SOA)* — contiguous aligned loads and streaming
  stores; math unchanged (4 × cnd + exp + log + div + sqrt).
* *Advanced (erf + parity, SVML)* — 2 × erf replace 4 × cnd, the put
  comes from parity, divide/sqrt become recip/rsqrt iterations.
* *Advanced (VML)* — batched array math: on SNB-EP the intermediate
  arrays live in the 20 MB L3 and the batched library runs ~15% faster
  per element; KNC has no L3, so the same arrays round-trip DRAM and VML
  loses to SVML (the paper's observation verbatim).
"""

from __future__ import annotations

from ...arch.cost import ExecutionContext
from ...arch.roofline import black_scholes_resource, roofline
from ...arch.spec import KNC, PLATFORMS, SNB_EP, ArchSpec
from ...pricing.options import BS_FIELDS
from ...simd.layout import AOSBatch
from ...simd.trace import OpTrace
from ..base import KernelModel, OptLevel, Tier

#: Fig. 4 bar labels.
TIERS = (
    Tier(OptLevel.REFERENCE, "Basic (Reference)",
         "AOS layout, compiler-style vectorization"),
    Tier(OptLevel.INTERMEDIATE, "Intermediate (AOS to SOA conversion)",
         "contiguous SIMD loads + streaming stores"),
    Tier(OptLevel.ADVANCED, "Advanced (erf+parity, SVML)",
         "erf substitution, put-call parity, recip/rsqrt"),
    Tier(OptLevel.ADVANCED, "Advanced (Using VML)",
         "batched array math (L3-resident on SNB-EP)"),
)

#: DRAM bytes per option: 24 in, 16 out (streaming stores) — Sec. IV-A3.
BYTES_PER_OPTION = 40

#: VML per-element efficiency on an OOO core with a big LLC.
_VML_SPEEDUP_OOO = 0.85

_GROUP = 1024  # options per synthesized trace


def _aos_lines(width: int) -> int:
    """Cachelines one width-lane gather of a single field touches in the
    5-field AOS record layout."""
    return AOSBatch(BS_FIELDS, max(width, 2)).lines_per_vector_access(width)


def _common_flops(t: OpTrace, groups: int) -> None:
    """The non-transcendental arithmetic of one vectorized group:
    qlog/denom/d1/d2/xexp plus price assembly (~8 mul + 8 add)."""
    t.op("mul", 8 * groups)
    t.op("add", 8 * groups)
    t.overhead(2 * groups)


def reference_trace(arch: ArchSpec, n: int = _GROUP) -> OpTrace:
    """Basic (Reference): AOS, four cnd per option."""
    if arch.out_of_order:
        w = arch.simd_width_dp
        groups = n // w
        t = OpTrace(width=w)
        lines = _aos_lines(w)
        t.gather(3 * groups, lines_per_access=lines)      # S, X, T
        t.scatter(2 * groups, lines_per_access=lines)     # call, put
        t.transcendental("cnd", 4 * n)
        t.transcendental("exp", n)
        t.transcendental("log", n)
        t.op("div", groups)
        t.op("sqrt", groups)
        _common_flops(t, groups)
    else:
        # KNC: AOS defeats profitable vectorization (>10x instruction
        # blow-up, Sec. IV-A3) — scalar execution with scalar libm.
        t = OpTrace(width=1)
        t.load(3 * n)
        t.store(2 * n)
        t.transcendental("cnd", 4 * n)
        t.transcendental("exp", n)
        t.transcendental("log", n)
        t.op("div", n)
        t.op("sqrt", n)
        t.scalar_ops += 20 * n
        t.overhead(2 * n)
    # AOS interleaving streams the whole 40-byte record both ways.
    t.dram(read=BYTES_PER_OPTION * n, written=16 * n)
    t.items = n
    return t


def soa_trace(arch: ArchSpec, n: int = _GROUP) -> OpTrace:
    """Intermediate: SOA layout, math unchanged."""
    w = arch.simd_width_dp
    groups = n // w
    t = OpTrace(width=w)
    t.load(3 * groups)
    t.store(2 * groups)
    t.transcendental("cnd", 4 * n)
    t.transcendental("exp", n)
    t.transcendental("log", n)
    t.op("div", groups)
    t.op("sqrt", groups)
    _common_flops(t, groups)
    t.dram(read=24 * n, written=16 * n)
    t.items = n
    return t


def advanced_trace(arch: ArchSpec, n: int = _GROUP,
                   vml: bool = False) -> OpTrace:
    """Advanced: erf + parity (+ VML array-call variant)."""
    w = arch.simd_width_dp
    groups = n // w
    t = OpTrace(width=w)
    t.load(3 * groups)
    t.store(2 * groups)
    erf_elems = 2 * n
    exp_elems = n
    log_elems = n
    if vml and arch.out_of_order:
        # Batched library: fewer cycles per element, arrays stay in L3.
        erf_elems = int(erf_elems * _VML_SPEEDUP_OOO)
        exp_elems = int(exp_elems * _VML_SPEEDUP_OOO)
        log_elems = int(log_elems * _VML_SPEEDUP_OOO)
    t.transcendental("erf", erf_elems)
    t.transcendental("exp", exp_elems)
    t.transcendental("log", log_elems)
    t.transcendental("recip", n // w)
    t.transcendental("rsqrt", n // w)
    _common_flops(t, groups)
    t.op("mul", 2 * groups)  # parity put assembly
    t.dram(read=24 * n, written=16 * n)
    if vml and not arch.out_of_order:
        # No L3 on KNC: four intermediate arrays round-trip DRAM.
        t.dram(read=4 * 8 * n, written=4 * 8 * n)
    t.items = n
    return t


def build(n: int = _GROUP) -> KernelModel:
    """Model ladder on both platforms (Fig. 4 data)."""
    km = KernelModel("black_scholes", "options/s", TIERS)
    for arch in PLATFORMS:
        ctx = ExecutionContext(unrolled=True)
        km.add(TIERS[0], arch, reference_trace(arch, n),
               ExecutionContext(unrolled=False, streaming_stores=False))
        km.add(TIERS[1], arch, soa_trace(arch, n), ctx)
        km.add(TIERS[2], arch, advanced_trace(arch, n, vml=False), ctx)
        km.add(TIERS[3], arch, advanced_trace(arch, n, vml=True), ctx)
    return km


def bandwidth_bound(arch: ArchSpec) -> float:
    """The Fig. 4 horizontal line: B/40 options per second."""
    return roofline(arch, black_scholes_resource()).bandwidth_bound

"""Design-space exploration over the parametric machine model.

The paper characterises two fixed 2012 chips; the machine model here is
parametric, so the follow-on question — *where do each kernel's Ninja
gap and serial/parallel crossover move as the machine changes?* — is
answerable by sweeping :class:`~repro.arch.spec.ArchSpec` axes (cores ×
SIMD width × LLC capacity × bandwidth) through the cost model.  Each
grid point re-synthesises the kernel's tier ladder at the variant's
width (the ``bench.whatif`` idiom) and records:

* the Ninja gap (best tier / reference tier throughput);
* whether the best tier is compute- or bandwidth-bound;
* the modeled serial/parallel crossover working set — the smallest
  problem (in bytes) where fanning out to all cores beats staying on
  one, given a fixed per-dispatch overhead.

The crossover formula is Amdahl's law plus a fixed per-dispatch sync
cost: ``c`` cores run a job of single-core time ``t`` in
``t·(s + (1-s)/c) + sync_overhead``.  With per-item single-core time
``t1`` and serial fraction ``s``, parallel wins once

    n * t1 * (1 - (s + (1-s)/c))  >  sync_overhead
    n*  =  sync_overhead / (t1 * (1-s) * (1 - 1/c))

and ``crossover_bytes = n* × bytes_per_item`` (working set from the
kernel's registered :class:`~repro.registry.WorkloadSpec`).  The
dispatch overhead defaults to the measured thread-pool submission round
(25–40 µs on the reference host), not a ~5 µs OpenMP barrier — the
runtime being tuned dispatches through a Python pool.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..arch.cost import CostModel, cycles_per_item
from ..arch.spec import KNC, SNB_EP, ArchSpec
from ..errors import ConfigurationError

#: Per-dispatch overhead (s) for the measured runtime's pool submission
#: round — PR 5 measured 25–40 µs; the midpoint seeds the model.
DISPATCH_OVERHEAD_S = 30e-6

#: Serial fraction ``s`` of a pool dispatch (argument marshalling,
#: result collection) in the Amdahl term ``s + (1-s)/c``.
SERIAL_FRACTION = 1e-4

#: Default sweep axes: cores × SIMD width × LLC capacity × bandwidth.
DEFAULT_AXES = {
    "cores": (1, 2, 4, 8, 16, 32, 60),
    "simd_width_dp": (1, 2, 4, 8),
    "llc_mb": (4, 20, 64),
    "stream_bw_gbs": (38.0, 76.0, 152.0, 304.0),
}

#: Reduced axes for CI (--smoke): 2 values per axis, both anchors kept.
SMOKE_AXES = {
    "cores": (4, 16),
    "simd_width_dp": (4, 8),
    "llc_mb": (20,),
    "stream_bw_gbs": (76.0, 152.0),
}


@dataclass(frozen=True)
class DesignPoint:
    """One grid point of the sweep."""

    cores: int
    simd_width_dp: int
    llc_mb: int
    stream_bw_gbs: float

    @property
    def label(self) -> str:
        return (f"c{self.cores}-w{self.simd_width_dp}-"
                f"llc{self.llc_mb}M-bw{self.stream_bw_gbs:g}")


def design_grid(axes: dict | None = None):
    """The full cartesian grid of :class:`DesignPoint`."""
    axes = axes or DEFAULT_AXES
    points = []
    for c in axes["cores"]:
        for w in axes["simd_width_dp"]:
            for llc in axes["llc_mb"]:
                for bw in axes["stream_bw_gbs"]:
                    points.append(DesignPoint(c, w, llc, bw))
    return points


def variant_for(point: DesignPoint, base: ArchSpec = SNB_EP) -> ArchSpec:
    """An ArchSpec for a design point, derived from ``base``.

    Topology collapses to a single socket of ``cores`` cores; the last
    cache level is resized to the point's LLC capacity; peaks are
    re-derived so the variant stays self-consistent.
    """
    from ..bench.whatif import derive

    llc_bytes = point.llc_mb * 1024 * 1024
    *inner, last = base.caches
    caches = tuple(inner) + (replace(last, size=llc_bytes),)
    return derive(
        base, point.label,
        sockets=1, cores_per_socket=point.cores,
        simd_width_dp=point.simd_width_dp,
        stream_bw_gbs=point.stream_bw_gbs,
        caches=caches,
    )


def rebuild_model(kernel: str, variant: ArchSpec):
    """Re-synthesise ``kernel``'s tier ladder on ``variant``.

    Public wrapper over the ``bench.whatif`` builder, the one
    resynthesis path the DSE surfaces and anchors use.
    """
    from ..bench.whatif import _rebuild_for

    return _rebuild_for(kernel, variant)


def crossover_items(t1_item_s: float, cores: int,
                    dispatch_overhead_s: float = DISPATCH_OVERHEAD_S,
                    serial_fraction: float = SERIAL_FRACTION) -> float:
    """Smallest item count where a parallel dispatch beats inline."""
    if t1_item_s <= 0:
        raise ConfigurationError("t1_item_s must be positive")
    if cores <= 1:
        return float("inf")
    saved_per_item = t1_item_s * (1.0 - serial_fraction) * (1.0 - 1.0 / cores)
    return dispatch_overhead_s / saved_per_item


def modeled_crossover_bytes(
        kernel: str, spec: ArchSpec, cores: int | None = None,
        dispatch_overhead_s: float = DISPATCH_OVERHEAD_S) -> float:
    """Modeled serial/parallel crossover working set (bytes) on ``spec``.

    Uses the best modeled tier's per-item single-core time and the
    kernel's registered bytes-per-item.  Infinite on one core.
    """
    from .. import registry

    cores = cores or spec.total_cores
    km = rebuild_model(kernel, spec)
    best = km.best(spec.name)
    t1 = (cycles_per_item(best.trace, spec, best.ctx)
          / (spec.clock_ghz * 1e9))
    n_star = crossover_items(t1, cores, dispatch_overhead_s)
    return n_star * registry.workload(kernel).bytes_per_item


def kernel_surface(kernel: str, axes: dict | None = None,
                   base: ArchSpec = SNB_EP):
    """The kernel's (ninja gap, bound, crossover) over the design grid."""
    rows = []
    for point in design_grid(axes):
        variant = variant_for(point, base)
        km = rebuild_model(kernel, variant)
        best = km.best(variant.name)
        rows.append({
            "cores": point.cores,
            "simd_width_dp": point.simd_width_dp,
            "llc_mb": point.llc_mb,
            "stream_bw_gbs": point.stream_bw_gbs,
            "ninja_gap": km.ninja_gap(variant.name),
            "best_tier": best.tier.label,
            "bound": ("bandwidth"
                      if CostModel(variant).is_bandwidth_bound(
                          best.trace, best.ctx)
                      else "compute"),
            "crossover_bytes": modeled_crossover_bytes(kernel, variant),
        })
    return rows


def anchor_rows(kernel: str):
    """The two fixed 2012 chips as sanity anchors for the surfaces.

    Computed from the kernel's *registered* model builder (not the
    resynthesised ladders), so a drifting rebuild path shows up as an
    anchor mismatch in the ``dse`` record.
    """
    from ..kernels import build_model

    km = build_model(kernel)
    rows = []
    for spec in (SNB_EP, KNC):
        best = km.best(spec.name)
        rows.append({
            "platform": spec.name,
            "cores": spec.total_cores,
            "simd_width_dp": spec.simd_width_dp,
            "stream_bw_gbs": spec.stream_bw_gbs,
            "ninja_gap": km.ninja_gap(spec.name),
            "best_tier": best.tier.label,
            "crossover_bytes": modeled_crossover_bytes(kernel, spec),
        })
    return rows

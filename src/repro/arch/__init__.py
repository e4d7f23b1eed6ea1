"""Simulated IA architecture substrate.

Provides parametric machine models of the paper's two platforms
(:data:`SNB_EP`, :data:`KNC` — Table I), a set-associative cache
simulator, roofline bounds, and one cycle cost model for instruction
traces (:class:`CostModel`: core count, STREAM-bandwidth floor, and
read-for-ownership traffic with or without streaming stores).
"""

from .cache import CacheHierarchy, CacheLevel, CacheStats, working_set_fits
from .cost import (CostBreakdown, CostModel, ExecutionContext,
                   cycles_per_item)
from .host import (calibrate_host, host_facts, machine_fingerprint,
                   measure_flops, measure_stream_bandwidth)
from .roofline import (KernelResource, RooflineBound, attainable_gflops,
                       binomial_resource, black_scholes_resource,
                       brownian_resource, ridge_intensity, roofline)
from .spec import (KNC, PLATFORMS, SNB_EP, ArchSpec, CacheSpec,
                   platform_by_name)

__all__ = [
    "ArchSpec", "CacheSpec", "SNB_EP", "KNC", "PLATFORMS",
    "platform_by_name",
    "CacheHierarchy", "CacheLevel", "CacheStats", "working_set_fits",
    "CostModel", "CostBreakdown", "ExecutionContext", "cycles_per_item",
    "KernelResource", "RooflineBound", "roofline", "ridge_intensity",
    "attainable_gflops", "black_scholes_resource", "binomial_resource",
    "brownian_resource",
    "calibrate_host", "measure_flops", "measure_stream_bandwidth",
    "host_facts", "machine_fingerprint",
]

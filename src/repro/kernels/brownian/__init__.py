"""Brownian bridge construction kernel (paper Sec. IV-C, Fig. 6)."""

# Registers the functional ladder with repro.registry.  This must come
# before .barrier, whose monte_carlo import would otherwise register
# that kernel ahead of this one and scramble the paper's Sec. IV order.
from . import tiers  # noqa: F401
from .barrier import (bridge_crossing_probability,
                      gbm_paths_from_normals, price_up_and_out_call)
from .bridge import BridgeSchedule, bridge_covariance, make_schedule
from .interleaved import (build_cache_to_cache, build_interleaved,
                          default_block_paths)
from .model import (TIERS, basic_trace, build, cache_to_cache_trace,
                    interleaved_trace, intermediate_trace)
from .parallel import build_parallel
from .reference import build_reference
from .risk import barrier_risk_parallel
from .vectorized import build_vectorized, randoms_to_path_major

__all__ = [
    "BridgeSchedule", "make_schedule", "bridge_covariance",
    "build_reference", "build_vectorized", "randoms_to_path_major",
    "barrier_risk_parallel",
    "build_interleaved", "build_cache_to_cache", "default_block_paths",
    "build_parallel",
    "build", "TIERS", "basic_trace", "intermediate_trace",
    "interleaved_trace", "cache_to_cache_trace",
    "price_up_and_out_call", "bridge_crossing_probability",
    "gbm_paths_from_normals",
]

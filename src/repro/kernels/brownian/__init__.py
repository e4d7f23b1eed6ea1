"""Brownian bridge construction kernel (paper Sec. IV-C, Fig. 6)."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".barrier": ("bridge_crossing_probability", "gbm_paths_from_normals",
                 "price_up_and_out_call"),
    ".bridge": ("BridgeSchedule", "bridge_covariance", "make_schedule"),
    ".interleaved": ("build_cache_to_cache", "build_interleaved",
                     "default_block_paths"),
    ".model": ("TIERS", "basic_trace", "build", "cache_to_cache_trace",
               "interleaved_trace", "intermediate_trace"),
    ".reference": ("build_reference",),
    ".vectorized": ("build_vectorized", "randoms_to_path_major"),
})

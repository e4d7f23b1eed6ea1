"""1-D binomial tree pricing kernel (paper Sec. IV-B, Fig. 5), including
the novel register-tiling reduction of Listing 3."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".basic": ("price_basic", "price_basic_batch"),
    ".model": ("TIERS", "build", "compute_bound", "reference_trace",
               "simd_across_trace", "tiled_trace", "working_set_bytes"),
    ".parallel": ("price_tiled_parallel",),
    ".params": ("TreeParams", "crr_params", "intrinsic_row", "leaf_values"),
    ".reference": ("price_reference", "price_reference_batch"),
    ".simd_across": ("price_simd_across",),
    ".tiled": ("default_tile_size", "price_tiled", "tiled_reduce"),
    ".traced": ("traced_inner_loop", "traced_simd_across", "traced_tiled"),
})

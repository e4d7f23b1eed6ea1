"""1-D binomial tree pricing kernel (paper Sec. IV-B, Fig. 5), including
the novel register-tiling reduction of Listing 3."""

from .basic import price_basic, price_basic_batch
from .model import (TIERS, build, compute_bound, reference_trace,
                    simd_across_trace, tiled_trace, working_set_bytes)
from .parallel import price_tiled_parallel
from .params import (TreeParams, crr_params, intrinsic_row, leaf_values,
                     spot_at_node)
from .reference import price_reference, price_reference_batch
from .simd_across import price_simd_across
from .tiled import default_tile_size, price_tiled, tiled_reduce
from .trinomial import (TrinomialParams, price_trinomial,
                        price_trinomial_batch, trinomial_params)
from .traced import traced_inner_loop, traced_simd_across, traced_tiled

# Registers the functional ladder for European groups with repro.registry.
from . import tiers  # noqa: E402,F401

__all__ = [
    "price_tiled_parallel",
    "TreeParams", "crr_params", "leaf_values", "intrinsic_row",
    "spot_at_node",
    "price_reference", "price_reference_batch",
    "price_basic", "price_basic_batch",
    "price_simd_across",
    "price_tiled", "tiled_reduce", "default_tile_size",
    "traced_inner_loop", "traced_simd_across", "traced_tiled",
    "build", "TIERS", "compute_bound", "working_set_bytes",
    "reference_trace", "simd_across_trace", "tiled_trace",
    "price_trinomial", "price_trinomial_batch", "trinomial_params",
    "TrinomialParams",
]

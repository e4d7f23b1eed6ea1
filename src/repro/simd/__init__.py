"""SIMD substrate: vector value classes, the tracing vector machine and
data layouts — the Python analogue of the paper's ``F64vec4``/``F64vec8``
intrinsics layer."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".layout": ("AOSBatch", "FieldSpec", "RecordBatch", "SOABatch",
                "aos_to_soa", "make_batch", "soa_to_aos",
                "transform_traffic_bytes"),
    ".machine": ("TracedArray", "VectorMachine"),
    ".trace": ("ARITH_OPS", "FLOPS_PER_LANE", "TRANSCENDENTAL_FLOPS",
               "OpTrace"),
    ".vec": ("F64Vec", "F64vec4", "F64vec8", "Mask"),
})

"""Black-Scholes closed-form pricing kernel (paper Sec. IV-A, Fig. 4)."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".advanced": ("price_advanced",),
    ".basic": ("price_basic",),
    ".intermediate": ("price_intermediate",),
    ".model": ("BYTES_PER_OPTION", "TIERS", "advanced_trace",
               "bandwidth_bound", "build", "reference_trace", "soa_trace"),
    ".greeks": ("GREEKS_BYTES_PER_OPTION", "greeks_parallel"),
    ".implied": ("implied_parallel", "implied_vol", "surface_vols"),
    ".parallel": ("SLAB_BYTES_PER_OPTION", "price_parallel"),
    ".reference": ("price_reference",),
    ".scenario": ("SPOT_SHIFTS", "VOL_SHIFTS", "scenario_parallel"),
    ".traced": ("traced_price_aos", "traced_price_soa"),
})

"""Random-number generation kernel (paper Sec. IV-D3, Table II rows 3–4)."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".functional": ("ScalarMT19937", "rng_tier_rates"),
    ".greeks": ("pathwise_parallel",),
    ".model": ("TIERS", "build", "modeled_rate"),
    ".parallel": ("uniform53_parallel",),
})

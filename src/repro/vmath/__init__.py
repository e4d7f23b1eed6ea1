"""Vector math substrate: from-scratch vectorized transcendentals and
the table-driven normal CDF the measured Black-Scholes tiers call
directly (the paper's SVML-vs-VML library choice is modeled, in
:mod:`repro.kernels.black_scholes.model`)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cnd": ("vcnd", "vpdf"),
    ".erf": ("verf", "verfc"),
    ".exp": ("vexp",),
    ".invcnd": ("vinvcnd",),
    ".log": ("vlog",),
    ".poly": ("horner",),
})

"""Vector math substrate: from-scratch vectorized transcendentals and
the table-driven normal CDF the measured Black-Scholes tiers call
directly (the paper's SVML-vs-VML library choice is modeled, in
:mod:`repro.kernels.black_scholes.model`)."""

from .cnd import vcnd, vpdf
from .erf import verf, verfc
from .exp import vexp
from .invcnd import vinvcnd
from .log import vlog
from .poly import estrin, estrin_depth, horner, horner_depth
from .trig import box_muller_scratch, vcos, vsin, vsincos

__all__ = [
    "vexp", "vlog",
    "verf", "verfc", "vcnd", "vpdf", "vinvcnd",
    "horner", "estrin", "horner_depth", "estrin_depth",
    "vsin", "vcos", "vsincos", "box_muller_scratch",
]

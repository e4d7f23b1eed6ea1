"""Vector math substrate: from-scratch vectorized transcendentals, the
table-driven normal CDF the measured tiers use, and the SVML/VML
library facades with cost accounting."""

from .cnd import vcnd, vcnd_via_erf, vpdf
from .erf import verf, verfc
from .exp import vexp, vexp_blocked
from .invcnd import vinvcnd
from .libs import NumpyLib, SVMLLib, VectorMathLib, VMLLib, get_lib
from .log import vlog, vlog_blocked
from .poly import estrin, estrin_depth, horner, horner_depth
from .trig import box_muller_scratch, vcos, vsin, vsincos

__all__ = [
    "vexp", "vexp_blocked", "vlog", "vlog_blocked",
    "verf", "verfc", "vcnd", "vcnd_via_erf", "vpdf", "vinvcnd",
    "horner", "estrin", "horner_depth", "estrin_depth",
    "VectorMathLib", "SVMLLib", "VMLLib", "NumpyLib", "get_lib",
    "vsin", "vcos", "vsincos", "box_muller_scratch",
]

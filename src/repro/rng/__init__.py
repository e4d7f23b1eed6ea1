"""Random-number substrate: from-scratch Mersenne twisters (MT19937,
MT2203-style family), Philox counter-based streams, normal transforms and
parallel stream management — the reproduction's MKL-RNG stand-in."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".counting": ("normal_trace", "uniform_trace"),
    ".mt19937": ("MT19937",),
    ".mt2203": ("MAX_STREAMS", "MT2203", "family", "stream_parameters"),
    ".normal": ("NormalGenerator", "box_muller", "icdf_transform"),
    ".philox": ("Philox",),
    ".sobol": ("Sobol", "direction_numbers", "is_primitive",
               "primitive_polynomials"),
    ".streams": ("StreamSet", "make_streams"),
})

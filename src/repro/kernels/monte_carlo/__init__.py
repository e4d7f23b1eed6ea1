"""Monte-Carlo European option pricing kernel (paper Sec. IV-D,
Table II rows 1–2)."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".asian": ("price_asian_call", "price_geometric_asian_mc"),
    ".bump": ("BUMP_REL", "greeks_stream_parallel"),
    ".lsmc": ("price_american_lsmc", "simulate_gbm_paths"),
    ".model": ("PATH_LENGTH", "TIERS", "build", "computed_trace",
               "stream_trace"),
    ".multi_asset": ("cholesky_correlation", "margrabe_exact",
                     "price_basket_call", "price_best_of_call",
                     "price_exchange", "terminal_assets"),
    ".parallel": ("price_stream_parallel",),
    ".reference": ("MCResult", "price_reference"),
    ".vectorized": ("price_antithetic", "price_computed", "price_stream"),
})

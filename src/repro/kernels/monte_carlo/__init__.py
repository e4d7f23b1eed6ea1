"""Monte-Carlo European option pricing kernel (paper Sec. IV-D,
Table II rows 1–2)."""

from .asian import (price_asian_call, price_geometric_asian_mc)
from .bump import BUMP_REL, greeks_stream_parallel
from .greeks import (digital_delta_exact, digital_delta_lr,
                     likelihood_ratio_delta, pathwise_delta,
                     pathwise_vega)
from .lsmc import price_american_lsmc, simulate_gbm_paths
from .model import (PATH_LENGTH, TIERS, build, computed_trace,
                    stream_trace)
from .multi_asset import (cholesky_correlation, margrabe_exact,
                          price_basket_call, price_best_of_call,
                          price_exchange, terminal_assets)
from .parallel import price_stream_parallel
from .reference import MCResult, price_reference
from .vectorized import (price_antithetic, price_computed, price_stream)

# Registers the STREAM-mode functional ladder (Table II row 1) with
# repro.registry.
from . import tiers  # noqa: E402,F401

__all__ = [
    "MCResult", "price_reference", "price_stream", "price_computed",
    "price_antithetic",
    "price_stream_parallel", "greeks_stream_parallel", "BUMP_REL",
    "build", "TIERS", "PATH_LENGTH", "stream_trace", "computed_trace",
    "price_american_lsmc", "simulate_gbm_paths",
    "terminal_assets", "cholesky_correlation", "price_basket_call",
    "price_exchange", "price_best_of_call", "margrabe_exact",
    "pathwise_delta", "pathwise_vega", "likelihood_ratio_delta",
    "digital_delta_lr", "digital_delta_exact",
    "price_asian_call", "price_geometric_asian_mc",
]

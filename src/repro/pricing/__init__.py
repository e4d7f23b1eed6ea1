"""Financial substrate: contracts, payoffs, closed-form oracle and
workload generators."""

from .analytic import (bs_call, bs_call_put, bs_delta, bs_gamma, bs_put,
                       bs_rho, bs_theta, bs_vega, parity_residual)
from .curves import (MarketCurves, PiecewiseFlatCurve, curve_call,
                     curve_put, simulate_curve_gbm)
from .exotic_analytic import (digital_call, digital_parity_residual,
                              digital_put, geometric_asian_call)
from .heston import (HestonParams, bs_equivalent_params, heston_call,
                     heston_put)
from .options import (BS_FIELDS, ExerciseStyle, Option, OptionBatch,
                      OptionKind, validate_inputs)
from .payoff import (call_payoff, payoff, payoff_in_log_space, put_payoff)
from .portfolio import PortfolioSpec, atm_batch, random_batch, strike_ladder

__all__ = [
    "Option", "OptionBatch", "OptionKind", "ExerciseStyle", "BS_FIELDS",
    "validate_inputs",
    "call_payoff", "put_payoff", "payoff", "payoff_in_log_space",
    "bs_call", "bs_put", "bs_call_put", "parity_residual",
    "bs_delta", "bs_gamma", "bs_vega", "bs_theta", "bs_rho",
    "PortfolioSpec", "random_batch", "atm_batch", "strike_ladder",
    "HestonParams", "heston_call", "heston_put", "bs_equivalent_params",
    "digital_call", "digital_put", "digital_parity_residual",
    "geometric_asian_call",
    "PiecewiseFlatCurve", "MarketCurves", "curve_call", "curve_put",
    "simulate_curve_gbm",
]

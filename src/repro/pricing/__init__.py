"""Financial substrate: contracts, payoffs, closed-form oracle and
workload generators."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".analytic": ("bs_call", "bs_call_put", "bs_delta", "bs_gamma", "bs_put",
                  "bs_rho", "bs_theta", "bs_vega", "parity_residual"),
    ".curves": ("MarketCurves", "PiecewiseFlatCurve", "curve_call",
                "curve_put", "simulate_curve_gbm"),
    ".exotic_analytic": ("digital_call", "digital_parity_residual",
                         "digital_put", "geometric_asian_call"),
    ".heston": ("HestonParams", "bs_equivalent_params", "heston_call",
                "heston_put"),
    ".options": ("BS_FIELDS", "ExerciseStyle", "Option", "OptionBatch",
                 "OptionKind", "validate_inputs"),
    ".payoff": ("call_payoff", "payoff", "payoff_in_log_space", "put_payoff"),
    ".portfolio": ("PortfolioSpec", "atm_batch", "random_batch",
                   "strike_ladder"),
})

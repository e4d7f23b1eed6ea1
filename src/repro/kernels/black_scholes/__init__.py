"""Black-Scholes closed-form pricing kernel (paper Sec. IV-A, Fig. 4)."""

from .advanced import price_advanced
from .basic import price_basic
from .intermediate import price_intermediate
from .model import (BYTES_PER_OPTION, TIERS, advanced_trace,
                    bandwidth_bound, build, reference_trace, soa_trace)
from .greeks import GREEKS_BYTES_PER_OPTION, greeks_parallel
from .implied import implied_parallel, implied_vol, surface_vols
from .parallel import SLAB_BYTES_PER_OPTION, price_parallel
from .reference import price_reference
from .scenario import SPOT_SHIFTS, VOL_SHIFTS, scenario_parallel
from .traced import traced_price_aos, traced_price_soa

# Registers the functional ladder (reference..parallel) with
# repro.registry — the host-measurable counterpart of the modeled TIERS.
from . import tiers  # noqa: E402,F401

__all__ = [
    "price_reference", "price_basic", "price_intermediate",
    "price_advanced", "price_parallel",
    "greeks_parallel", "implied_parallel", "implied_vol",
    "scenario_parallel",
    "surface_vols", "SPOT_SHIFTS", "VOL_SHIFTS",
    "SLAB_BYTES_PER_OPTION", "GREEKS_BYTES_PER_OPTION",
    "build", "TIERS", "BYTES_PER_OPTION", "bandwidth_bound",
    "reference_trace", "soa_trace", "advanced_trace",
    "traced_price_aos", "traced_price_soa",
]

"""Functional-tier registrations for the Black-Scholes kernel.

Registers the Fig. 4 ladder — reference (scalar AOS), basic (vectorized
AOS), intermediate (SOA), advanced (one CDF pass + parity), parallel
(fused slab) — with :mod:`repro.registry`, plus the shared Fig. 4
workload.  Each adapter prices the payload in place and returns the
concatenated ``call``/``put`` vector, comparable element for element.
"""

from __future__ import annotations

import numpy as np

from ...pricing.options import OptionBatch
from ...pricing.portfolio import random_batch
from ...registry import WorkloadSpec, register_impl, register_workload
from ...results import GREEK_OUTPUTS
from ..levels import OptLevel
from .advanced import price_advanced
from .basic import price_basic
from .greeks import (GREEKS_BYTES_PER_OPTION, compile_greeks_parallel,
                     greeks_parallel)
from .implied import compile_implied_parallel, implied_parallel
from .intermediate import price_intermediate
from .parallel import (SLAB_BYTES_PER_OPTION, compile_price_parallel,
                       price_parallel)
from .reference import price_reference
from .scenario import compile_scenario_parallel, scenario_parallel


def make_payload(S, X, T, rate: float, vol: float) -> dict:
    """Registry payload for explicit contracts: the same draw in both
    layouts, so AOS tiers and SOA tiers price identical inputs."""
    return {
        "aos": OptionBatch(S, X, T, rate, vol, layout="aos"),
        "soa": OptionBatch(S, X, T, rate, vol, layout="soa"),
    }


def build_workload(sizes, seed: int = 2012) -> dict:
    """The Fig. 4 option batch (both layouts, one seed)."""
    return {
        "aos": random_batch(sizes.black_scholes_nopt, seed=seed,
                            layout="aos"),
        "soa": random_batch(sizes.black_scholes_nopt, seed=seed,
                            layout="soa"),
    }


def _extract(batch: OptionBatch) -> np.ndarray:
    return np.concatenate([batch.call, batch.put])


def _run_reference(payload, executor):
    price_reference(payload["aos"])
    return _extract(payload["aos"])


def _run_basic(payload, executor):
    price_basic(payload["aos"])
    return _extract(payload["aos"])


def _run_intermediate(payload, executor):
    price_intermediate(payload["soa"])
    return _extract(payload["soa"])


def _run_advanced(payload, executor):
    price_advanced(payload["soa"])
    return _extract(payload["soa"])


def _run_parallel(payload, executor):
    price_parallel(payload["soa"], executor)
    return _extract(payload["soa"])


def _plan_parallel(payload, executor, arena):
    """Planner: prices land in the arena's ``[calls | puts]`` vector,
    so warm runs also skip ``_run_parallel``'s ``np.concatenate``."""
    return compile_price_parallel(payload["soa"], executor, arena)


def _run_greeks(payload, executor):
    return greeks_parallel(payload["soa"], executor)


def _plan_greeks(payload, executor, arena):
    return compile_greeks_parallel(payload["soa"], executor, arena)


def _run_implied(payload, executor):
    return implied_parallel(payload["soa"], executor)


def _plan_implied(payload, executor, arena):
    return compile_implied_parallel(payload["soa"], executor, arena)


def _run_scenario(payload, executor):
    return scenario_parallel(payload["soa"], executor)


def _plan_scenario(payload, executor, arena):
    return compile_scenario_parallel(payload["soa"], executor, arena)


register_workload(WorkloadSpec(
    kernel="black_scholes",
    build=build_workload,
    items=lambda p: len(p["soa"]),
    unit=" Mopts/s",
    scale=1e-6,
    tolerance=1e-10,
    bytes_per_item=SLAB_BYTES_PER_OPTION,
    greeks_tier="greeks",
))
register_impl("black_scholes", "reference", OptLevel.REFERENCE,
              _run_reference)
register_impl("black_scholes", "basic", OptLevel.BASIC, _run_basic)
register_impl("black_scholes", "intermediate", OptLevel.INTERMEDIATE,
              _run_intermediate)
register_impl("black_scholes", "advanced", OptLevel.ADVANCED,
              _run_advanced)
register_impl("black_scholes", "parallel", OptLevel.PARALLEL,
              _run_parallel,
              backends=("serial", "thread", "process", "daemon"),
              planner=_plan_parallel)
# Risk tiers: the fused analytic Greeks slab (price + full Greeks,
# puts native), the vectorized-Newton implied-vol inverse, and the
# spot×vol stress grid.  The Greeks tier's "price" output is the same
# [calls | puts] vector the ladder compares, so it stays checked
# against the reference tier; the inverse/scenario workloads have no
# reference-ladder counterpart and are digest-audited across backends
# instead.
register_impl("black_scholes", "greeks", OptLevel.PARALLEL,
              _run_greeks,
              backends=("serial", "thread", "process", "daemon"),
              outputs=GREEK_OUTPUTS,
              planner=_plan_greeks)
register_impl("black_scholes", "implied", OptLevel.PARALLEL,
              _run_implied,
              backends=("serial", "thread", "process", "daemon"),
              checked=False,
              outputs=("implied_vol",),
              planner=_plan_implied)
register_impl("black_scholes", "scenario", OptLevel.PARALLEL,
              _run_scenario,
              backends=("serial", "thread", "process", "daemon"),
              checked=False,
              outputs=("grid",),
              planner=_plan_scenario)

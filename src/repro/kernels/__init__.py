"""The six-kernel derivative-pricing benchmark (paper Sec. II/IV).

Importing this package loads nothing else: each kernel package, and
:mod:`.base` with its performance-model machinery, loads on first use
(PEP 562).  :mod:`repro.registry` imports a kernel's tier module the
first time that kernel is looked up, and :func:`build_model` imports a
kernel's ``model.py`` the first time its model is built; the paper's
Sec. IV order (and so the Ninja-table row order) is the registry's
static kernel table, not import order.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".levels": ("OptLevel",),
    ".base": ("Tier", "TierPerf", "KernelModel", "build_model",
              "register_model", "registered_models"),
}, submodules=("black_scholes", "binomial", "brownian", "monte_carlo",
               "crank_nicolson", "rng_kernel"))

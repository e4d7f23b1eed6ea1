"""repro — a reproduction of *Analysis and Optimization of Financial
Analytics Benchmark on Modern Multi- and Many-core IA-Based
Architectures* (SC 2012).

The package provides:

* :mod:`repro.kernels` — the six derivative-pricing kernels
  (Black-Scholes, binomial tree, Brownian bridge, Monte-Carlo,
  Crank-Nicolson/PSOR, RNG) at every optimization tier the paper defines,
  functionally correct and numerically validated;
* :mod:`repro.arch` / :mod:`repro.simd` — simulated SNB-EP and KNC
  machine models (Table I), a tracing vector machine, cache simulator and
  cycle cost model that regenerate the paper's performance figures;
* :mod:`repro.vmath`, :mod:`repro.rng`, :mod:`repro.pricing`,
  :mod:`repro.parallel` — the math-library, RNG, financial and
  threading substrates;
* :mod:`repro.bench` — one experiment per paper table/figure.

Nothing here loads until it is used.  The priced half (kernel tier
modules, ``vmath``, ``rng``, ``pricing``, ``plan``, ``parallel``,
``serve``) never imports the modeled half (the kernels' ``model.py`` and
``traced.py``, ``arch``, the ``simd`` tracing machine, ``bench``):
a gateway process loads one kernel's tiers and nothing of the models.

Quickstart::

    from repro import price_black_scholes, run_experiment, format_table
    from repro.pricing import random_batch

    batch = random_batch(100_000)
    price_black_scholes(batch)             # fills batch.call / batch.put
    print(format_table(run_experiment("fig4")))
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".pricing": ("Option", "OptionBatch", "OptionKind", "ExerciseStyle",
                 "random_batch"),
    ".kernels.black_scholes.advanced": ("price_black_scholes=price_advanced",),
    ".kernels.binomial.tiled": ("price_binomial=price_tiled",),
    ".kernels.monte_carlo.vectorized": ("price_monte_carlo=price_stream",),
    ".kernels.crank_nicolson.solver": ("price_american_cn=solve",),
    ".bench": ("run_experiment", "run_all", "format_table", "ladder_bars"),
    ".config": ("RunConfig", "DEFAULT_CONFIG", "PAPER_SIZES", "SMALL_SIZES"),
    ".errors": ("ReproError", "ConfigurationError", "LayoutError",
                "VectorWidthError", "TraceError", "ConvergenceError",
                "DomainError", "ExperimentError"),
}, submodules=("arch", "simd", "vmath", "rng", "pricing", "kernels",
               "parallel", "bench", "validation"))

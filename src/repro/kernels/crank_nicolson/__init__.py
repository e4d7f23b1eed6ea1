"""Crank-Nicolson / projected-SOR American option pricing kernel
(paper Sec. IV-E, Figs. 7–8), including the wavefront vectorization."""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".grid": ("HeatGrid", "make_grid", "price_at_spot", "s_grid",
              "transformed_payoff", "untransform"),
    ".gsor": ("SolveStats", "adapt_omega", "gsor_solve",
              "gsor_solve_vectorized_rb"),
    ".model": ("SWEEPS_PER_STEP", "TIERS", "build", "reference_trace",
               "transformed_trace", "wavefront_trace"),
    ".solver": ("SOLVERS", "CNResult", "solve", "solve_batch"),
    ".wavefront": ("merge_parity", "split_parity", "wavefront_solve",
                   "wavefront_solve_transformed"),
})

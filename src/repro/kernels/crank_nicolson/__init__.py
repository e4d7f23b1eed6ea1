"""Crank-Nicolson / projected-SOR American option pricing kernel
(paper Sec. IV-E, Figs. 7–8), including the wavefront vectorization."""

from .grid import (HeatGrid, make_grid, price_at_spot, s_grid,
                   transformed_payoff, untransform)
from .gsor import (SolveStats, adapt_omega, gsor_solve,
                   gsor_solve_vectorized_rb)
from .model import (SWEEPS_PER_STEP, TIERS, build, reference_trace,
                    transformed_trace, wavefront_trace)
from .boundary import ExerciseBoundary, exercise_boundary
from .parallel import solve_batch_parallel
from .schemes import (explicit_stability_limit, explicit_steps_required,
                      is_explicit_stable, solve_theta)
from .solver import SOLVERS, CNResult, solve, solve_batch
from .wavefront import (merge_parity, split_parity, wavefront_solve,
                        wavefront_solve_transformed)

# Registers the implicit-solver ladder with repro.registry.
from . import tiers  # noqa: E402,F401

__all__ = [
    "HeatGrid", "make_grid", "transformed_payoff", "untransform",
    "price_at_spot", "s_grid",
    "gsor_solve", "gsor_solve_vectorized_rb", "SolveStats", "adapt_omega",
    "wavefront_solve", "wavefront_solve_transformed", "split_parity",
    "merge_parity",
    "solve", "solve_batch", "solve_batch_parallel",
    "CNResult", "SOLVERS",
    "build", "TIERS", "SWEEPS_PER_STEP",
    "reference_trace", "wavefront_trace", "transformed_trace",
    "solve_theta", "explicit_stability_limit", "is_explicit_stable",
    "explicit_steps_required",
    "exercise_boundary", "ExerciseBoundary",
]

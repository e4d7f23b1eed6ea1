"""Crank-Nicolson time-stepper (paper Listing 6).

Marches the heat-transformed lattice through ``n_steps`` half-explicit /
half-implicit steps. The explicit half and the payoff refresh
autovectorize (the cheap ~10% the paper leaves alone); the implicit half
is delegated to a pluggable PSOR solver — scalar GSOR (reference),
wavefront (manual SIMD), transformed wavefront (data reorder), or
red-black (the basic tier). Listing 6's ω-adaptation heuristic is applied
between steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...config import DTYPE
from ...errors import ConfigurationError
from ...pricing.options import ExerciseStyle, Option
from .grid import (HeatGrid, boundary_values, make_grid, price_at_spot,
                   transformed_payoff, untransform)
from .gsor import adapt_omega, gsor_solve, gsor_solve_vectorized_rb
from .wavefront import wavefront_solve, wavefront_solve_transformed

#: Implicit-solver registry: name -> callable with the gsor_solve signature.
SOLVERS = {
    "gsor": gsor_solve,
    "wavefront": wavefront_solve,
    "wavefront_transformed": wavefront_solve_transformed,
    "red_black": gsor_solve_vectorized_rb,
}


@dataclass
class CNResult:
    """Solution of one contract."""

    price: float
    values: np.ndarray        # option values on the S grid at t=0
    grid: HeatGrid
    total_sweeps: int
    final_omega: float


def solve(opt: Option, n_points: int = 256, n_steps: int = 1000,
          solver: str = "gsor", omega: float = 1.0, tol: float = 1e-14,
          max_sweeps: int = 10_000, **solver_kwargs) -> CNResult:
    """Price ``opt`` by Crank-Nicolson with projected SOR.

    American style applies the early-exercise projection; European style
    runs unprojected GSOR (and must converge to Black-Scholes — a test).
    """
    if solver not in SOLVERS:
        raise ConfigurationError(
            f"unknown solver {solver!r}; have {sorted(SOLVERS)}"
        )
    run = SOLVERS[solver]
    grid = make_grid(opt, n_points, n_steps)
    a = grid.alpha
    alpha1 = 1.0 - a
    alpha2 = 0.5 * a
    american = opt.style is ExerciseStyle.AMERICAN
    u = transformed_payoff(grid, 0.0)
    b = np.empty_like(u)
    total_sweeps = 0
    prev_sweeps = np.inf  # Listing 6 seeds oldloops high
    for n in range(1, n_steps + 1):
        tau = n * grid.dtau
        g = transformed_payoff(grid, tau)
        # Explicit half step (autovectorized in the paper's code).
        b[1:-1] = alpha1 * u[1:-1] + alpha2 * (u[2:] + u[:-2])
        # Dirichlet boundaries from the contract's asymptotics.
        u_lo, u_hi = boundary_values(grid, tau, american)
        u[0] = b[0] = u_lo
        u[-1] = b[-1] = u_hi
        stats = run(b, u, g if american else None, a, omega=omega,
                    tol=tol, max_sweeps=max_sweeps, **solver_kwargs)
        total_sweeps += stats.sweeps
        omega = adapt_omega(omega, stats.sweeps, prev_sweeps)
        prev_sweeps = stats.sweeps
    values = untransform(grid, u, grid.tau_max)
    return CNResult(
        price=price_at_spot(grid, values), values=values, grid=grid,
        total_sweeps=total_sweeps, final_omega=omega,
    )


def solve_batch(options, n_points: int = 256, n_steps: int = 1000,
                solver: str = "gsor", **kwargs) -> np.ndarray:
    """Price several contracts (the paper parallelises across options
    with OpenMP; here the loop is the unit the parallel executor maps)."""
    return np.array(
        [solve(o, n_points, n_steps, solver, **kwargs).price
         for o in options],
        dtype=DTYPE,
    )

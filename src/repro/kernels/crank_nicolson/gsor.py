"""Scalar GSOR / projected-SOR solver (paper Listing 7) and its
red-black twin.

Solves the implicit half of the Crank-Nicolson step,

``(1 + α)·u_j − (α/2)·(u_{j−1} + u_{j+1}) = b_j``,

by Gauss-Seidel successive over-relaxation, sweeping j upward so each
update uses the already-updated left neighbour (the dependency that
defeats straightforward vectorization, Fig. 7). For American options the
update is *projected* onto the obstacle: ``u_j = max(g_j, u_j + ω(y−u_j))``
(Projected SOR, Wilmott et al.).

The convergence criterion is the summed squared update.  The scalar
solver checks it every ``check_every`` sweeps (1 by default); the
red-black solver, like the paper's optimized tiers (Sec. IV-E2), checks
it only every :data:`RB_CHECK_EVERY` sweeps, and on the last allowed one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ...errors import ConfigurationError, ConvergenceError

#: Red-black convergence-test stride: the residual is formed every this
#: many sweeps (and at ``max_sweeps``), the paper's AVX double width.
#: Measured against 2 on the benchmark march (2 lanes × 128 points ×
#: 100 steps): see EXPERIMENTS.md, "Crank-Nicolson convergence stride".
RB_CHECK_EVERY = 4


def check_solver_args(omega, tol, max_sweeps) -> None:
    """Reject what no PSOR solve can honour: ω outside the open interval
    (0, 2) where SOR converges, a NaN, infinite or negative ``tol``, and
    a ``max_sweeps`` that is not a non-bool integer ≥ 1."""
    if not (isinstance(omega, numbers.Real) and 0.0 < omega < 2.0):
        raise ConfigurationError(
            f"omega must lie in (0, 2), got {omega!r}")
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol)
            and tol >= 0.0):
        raise ConfigurationError(
            f"tol must be finite and >= 0, got {tol!r}")
    if (isinstance(max_sweeps, bool)
            or not isinstance(max_sweeps, numbers.Integral)
            or max_sweeps < 1):
        raise ConfigurationError(
            f"max_sweeps must be an integer >= 1, got {max_sweeps!r}")


@dataclass
class SolveStats:
    """Iteration bookkeeping for one implicit solve."""

    sweeps: int
    residual: float


def gsor_solve(b: np.ndarray, u: np.ndarray, g: np.ndarray | None,
               alpha: float, omega: float = 1.0, tol: float = 1e-9,
               max_sweeps: int = 10_000, check_every: int = 1) -> SolveStats:
    """One implicit solve, in place on ``u`` (interior points 1..n−2;
    boundary values are Dirichlet data set by the caller).

    ``g`` is the obstacle (None ⇒ plain GSOR for European contracts).
    ``check_every`` tests convergence only every that many sweeps — the
    knob the vectorized tiers turn (they check every vector-width sweeps),
    exposed here so the scalar solver can reproduce their iterate
    sequence exactly. Returns sweep count and final residual; raises
    :class:`~repro.errors.ConvergenceError` if ``max_sweeps`` is hit.
    """
    check_solver_args(omega, tol, max_sweeps)
    if check_every < 1:
        raise ValueError("check_every must be >= 1")
    n = u.shape[0]
    coeff = 1.0 / (1.0 + alpha)
    half_alpha = 0.5 * alpha
    projected = g is not None
    for sweep in range(1, max_sweeps + 1):
        error = 0.0
        for j in range(1, n - 1):
            y = coeff * (b[j] + half_alpha * (u[j - 1] + u[j + 1]))
            y = u[j] + omega * (y - u[j])
            if projected and g[j] > y:
                y = g[j]
            diff = y - u[j]
            error += diff * diff
            u[j] = y
        if sweep % check_every == 0 and error <= tol:
            return SolveStats(sweeps=sweep, residual=error)
    raise ConvergenceError(
        f"GSOR did not reach tol={tol} in {max_sweeps} sweeps "
        f"(residual {error:.3e})", max_sweeps, error,
    )


def gsor_solve_vectorized_rb(b: np.ndarray, u: np.ndarray,
                             g: np.ndarray | None, alpha: float,
                             omega: float = 1.0, tol: float = 1e-9,
                             max_sweeps: int = 10_000) -> SolveStats:
    """Red-black projected SOR, the ``BASIC`` tier of Fig. 8: the sweep
    is reordered (all odd interior points, then all even ones) so each
    half-sweep is one full-width vector operation.

    Unlike the wavefront scheme this changes the iterate sequence (not
    the fixed point).  ω folds into three coefficients, ``A =
    ω·(coeff·α/2)``, ``C = 1−ω`` and ``Bw = (ω·coeff)·b``, so a
    half-sweep is ``u_j ← max(g_j, (u_{j−1}+u_{j+1})·A + Bw_j + u_j·C)``.
    Convergence is tested every :data:`RB_CHECK_EVERY` sweeps and at
    ``max_sweeps``; the returned sweep count is always one of those.
    This is the oracle the lane-batched march (:mod:`.planned`)
    reproduces bit for bit.
    """
    check_solver_args(omega, tol, max_sweeps)
    n = u.shape[0]
    coeff = 1.0 / (1.0 + alpha)
    a = omega * (coeff * (0.5 * alpha))
    c = 1.0 - omega
    bw = (omega * coeff) * b
    projected = g is not None
    for sweep in range(1, max_sweeps + 1):
        test = sweep % RB_CHECK_EVERY == 0 or sweep == max_sweeps
        error = 0.0
        for p in (1, 2):  # interior odd points start at 1, even at 2
            j = slice(p, n - 1, 2)
            t = u[j] * c
            y = (u[p - 1:n - 2:2] + u[p + 1:n:2]) * a + bw[j] + t
            if projected:
                np.maximum(g[j], y, out=y)
            if test:
                diff = y - u[j]
                error += float((diff * diff).sum())
            u[j] = y
        if test and error <= tol:
            return SolveStats(sweeps=sweep, residual=error)
    raise ConvergenceError(
        f"red-black SOR did not reach tol={tol} in {max_sweeps} sweeps "
        f"(residual {error:.3e})", max_sweeps, error,
    )


def adapt_omega(omega: float, sweeps: int, prev_sweeps: int,
                domega: float = 0.05, omega_max: float = 1.95) -> float:
    """Listing 6's relaxation-parameter heuristic: if the last solve took
    more sweeps than the one before, nudge ω upward."""
    if sweeps > prev_sweeps and omega + domega < omega_max:
        return omega + domega
    return omega

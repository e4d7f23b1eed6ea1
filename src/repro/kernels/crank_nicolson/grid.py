"""Heat-equation transform and lattice for Crank-Nicolson pricing.

Following the paper's references (Wilmott et al., Kerman), the
Black-Scholes PDE is transformed to the heat equation before
discretisation: with ``S = K·e^x``, ``t = T − 2τ/σ²`` and

``V(S, t) = K · e^{−(k−1)x/2 − (k+1)²τ/4} · u(x, τ)``, ``k = 2r/σ²``,

``u`` satisfies ``u_τ = u_xx`` on the rectangle, and the American
early-exercise constraint becomes ``u(x,τ) ≥ g(x,τ)`` with the
transformed payoff

``g(x,τ) = e^{(k−1)x/2 + (k+1)²τ/4} · max(1 − e^x, 0)``   (put).

``α = dτ/dx²`` is then the paper's global ``alpha`` (0.73 in Listing 6 —
above the explicit-stability limit ½, which is exactly why the implicit
half-step and its GSOR solve are needed).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ...config import DTYPE
from ...errors import ConfigurationError, DomainError
from ...pricing.options import Option, OptionKind


@dataclass(frozen=True)
class HeatGrid:
    """Discretised transform rectangle for one option.

    Attributes
    ----------
    opt:
        The contract (American put is the paper's workload; European
        works too and is used for closed-form validation).
    n_points:
        Interior+boundary spatial points (the paper's 256).
    n_steps:
        Time steps (the paper's 1000).
    x:
        Spatial grid in log-moneyness, centred on 0.
    dx / dtau / alpha:
        Spacings and the CN ratio α = dτ/dx².
    k:
        ``2r/σ²``.
    """

    opt: Option
    n_points: int
    n_steps: int
    x: np.ndarray
    dx: float
    dtau: float
    alpha: float
    k: float

    @property
    def tau_max(self) -> float:
        return self.n_steps * self.dtau


def make_grid(opt: Option, n_points: int = 256, n_steps: int = 1000,
              x_half_width: float | None = None) -> HeatGrid:
    """Build the grid. ``x_half_width`` defaults to a multiple of the
    total volatility wide enough that boundary truncation error is
    negligible for near-the-money contracts."""
    for name, value in (("n_points", n_points), ("n_steps", n_steps)):
        if (isinstance(value, bool)
                or not isinstance(value, numbers.Integral)):
            raise ConfigurationError(
                f"{name} must be an integer, got {value!r}")
    n_points, n_steps = int(n_points), int(n_steps)
    if n_points < 8:
        raise DomainError("need at least 8 spatial points")
    if n_steps < 1:
        raise DomainError("need at least one time step")
    sig_sqrt_t = opt.vol * np.sqrt(opt.expiry)
    if x_half_width is None:
        x_half_width = max(4.0 * sig_sqrt_t, 1.0)
    x = np.linspace(-x_half_width, x_half_width, n_points).astype(DTYPE)
    dx = float(x[1] - x[0])
    tau_max = 0.5 * opt.vol ** 2 * opt.expiry
    dtau = tau_max / n_steps
    return HeatGrid(
        opt=opt, n_points=n_points, n_steps=n_steps, x=x, dx=dx,
        dtau=dtau, alpha=dtau / (dx * dx), k=2.0 * opt.rate / opt.vol ** 2,
    )


def transformed_payoff(grid: HeatGrid, tau: float) -> np.ndarray:
    """``g(x, τ)`` — the obstacle the American solution must dominate
    (Listing 6's ``u_payoff``)."""
    k = grid.k
    x = grid.x
    scale = np.exp(0.5 * (k - 1.0) * x + 0.25 * (k + 1.0) ** 2 * tau)
    if grid.opt.kind is OptionKind.PUT:
        intrinsic = np.maximum(1.0 - np.exp(x), 0.0)
    else:
        intrinsic = np.maximum(np.exp(x) - 1.0, 0.0)
    return np.asarray(scale * intrinsic, dtype=DTYPE)


def untransform(grid: HeatGrid, u: np.ndarray, tau: float) -> np.ndarray:
    """Map heat-equation values back to option values V on the S-grid."""
    k = grid.k
    x = grid.x
    factor = grid.opt.strike * np.exp(
        -0.5 * (k - 1.0) * x - 0.25 * (k + 1.0) ** 2 * tau
    )
    return np.asarray(factor * u, dtype=DTYPE)


def s_grid(grid: HeatGrid) -> np.ndarray:
    """Underlying prices corresponding to the x grid."""
    return grid.opt.strike * np.exp(grid.x)


def boundary_values(grid: HeatGrid, tau: float, american: bool) -> tuple:
    """Dirichlet data ``(u_lo, u_hi)`` at the grid edges for time ``τ``.

    The asymptotics of the vanilla option fix them: a put is worthless as
    ``S → ∞`` and worth ``K·e^{−r·t_rem} − S`` (European) or its exercise
    value ``K − S`` (American, immediate exercise optimal) as ``S → 0``;
    mirrored for a call. ``t_rem = 2τ/σ²`` is the remaining time the τ
    level corresponds to. Using intrinsic payoffs for European contracts
    here would bias the whole solution by the missing discounting.
    """
    opt = grid.opt
    t_rem = 2.0 * tau / opt.vol ** 2
    disc_k = opt.strike * np.exp(-opt.rate * t_rem)
    s_lo = opt.strike * np.exp(grid.x[0])
    s_hi = opt.strike * np.exp(grid.x[-1])
    if opt.kind is OptionKind.PUT:
        v_lo = (opt.strike - s_lo) if american else (disc_k - s_lo)
        v_hi = 0.0
    else:
        v_lo = 0.0
        v_hi = s_hi - disc_k  # American call (no dividends) = European
    k = grid.k

    def to_u(v, x):
        return (v / opt.strike) * np.exp(
            0.5 * (k - 1.0) * x + 0.25 * (k + 1.0) ** 2 * tau)

    return float(to_u(v_lo, grid.x[0])), float(to_u(v_hi, grid.x[-1]))


def price_at_spot(grid: HeatGrid, values: np.ndarray) -> float:
    """Interpolate the option value at the contract's spot price."""
    x_spot = np.log(grid.opt.spot / grid.opt.strike)
    if not grid.x[0] <= x_spot <= grid.x[-1]:
        raise DomainError(
            f"spot {grid.opt.spot} outside the lattice "
            f"[{grid.opt.strike * np.exp(grid.x[0]):.2f}, "
            f"{grid.opt.strike * np.exp(grid.x[-1]):.2f}]"
        )
    return float(np.interp(x_spot, grid.x, values))

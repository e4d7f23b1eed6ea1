"""Binomial-tree (CRR) parameters and leaf setup.

Cox-Ross-Rubinstein discretisation: over ``N`` steps of ``dt = T/N``,
prices move up by ``u = e^{σ√dt}`` or down by ``d = 1/u`` with risk-
neutral probability ``p = (e^{r·dt} − d)/(u − d)``; one backward step
multiplies by the discounted probabilities ``puByDf``/``pdByDf`` of
Listing 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...config import DTYPE
from ...errors import DomainError
from ...pricing.options import Option, OptionKind
from ...pricing.payoff import payoff


@dataclass(frozen=True)
class TreeParams:
    """Discounted step probabilities for one option's tree."""

    n_steps: int
    u: float
    d: float
    pu_by_df: float
    pd_by_df: float

    def __post_init__(self):
        if self.n_steps < 1:
            raise DomainError("tree needs at least one step")


def crr_params(opt: Option, n_steps: int) -> TreeParams:
    """CRR parameters for ``opt`` with ``n_steps`` time steps.

    Raises :class:`DomainError` when the risk-neutral probability falls
    outside (0, 1) — i.e. when ``dt`` is too coarse for the drift.
    """
    if n_steps < 1:
        raise DomainError("n_steps must be >= 1")
    dt = opt.expiry / n_steps
    u = float(np.exp(opt.vol * np.sqrt(dt)))
    d = 1.0 / u
    growth = float(np.exp(opt.rate * dt))
    p = (growth - d) / (u - d)
    if not 0.0 < p < 1.0:
        raise DomainError(
            f"risk-neutral probability {p:.4f} outside (0,1); "
            f"increase n_steps (vol={opt.vol}, r={opt.rate}, dt={dt:.4f})"
        )
    df = 1.0 / growth
    return TreeParams(n_steps=n_steps, u=u, d=d,
                      pu_by_df=p * df, pd_by_df=(1.0 - p) * df)


def leaf_values(opt: Option, params: TreeParams) -> np.ndarray:
    """Terminal payoffs at the ``N+1`` leaves, ordered from all-down
    (j = 0) to all-up (j = N)."""
    n = params.n_steps
    j = np.arange(n + 1, dtype=DTYPE)
    # S * u^j * d^(n-j); computed in log space for robustness at large N.
    log_s = (np.log(opt.spot) + j * np.log(params.u)
             + (n - j) * np.log(params.d))
    leaves = payoff(np.exp(log_s), opt.strike, opt.kind)
    return np.ascontiguousarray(leaves, dtype=DTYPE)


def intrinsic_row(opt: Option, params: TreeParams, step: int) -> np.ndarray:
    """Early-exercise payoffs for every node of one time step."""
    j = np.arange(step + 1, dtype=DTYPE)
    log_s = (np.log(opt.spot) + j * np.log(params.u)
             + (step - j) * np.log(params.d))
    return payoff(np.exp(log_s), opt.strike, opt.kind)

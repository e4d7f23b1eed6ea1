"""Brownian-bridge coefficient tables and semantics.

The depth-level bridge (paper Fig. 3, Listing 4) fills a dyadic grid on
``[0, T]`` level by level: given the endpoint value, each level ``d``
computes the midpoints of the ``2^d`` intervals from their bracketing
values plus a fresh gaussian:

``v(t_m) = w_l·v(t_l) + w_r·v(t_r) + sig·Z``

with ``w_l = (t_r − t_m)/(t_r − t_l)``, ``w_r = 1 − w_l`` and
``sig = sqrt((t_m − t_l)(t_r − t_m)/(t_r − t_l))``. On the uniform dyadic
grid these are ``w = ½`` and ``sig_d = sqrt(T / 2^(d+2))``, but the tables
are computed from the general formula so non-dyadic spacing is a
one-line extension.  A schedule records whether its tables are that
uniform case exactly (:attr:`BridgeSchedule.uniform_sig`), which lets
the vectorized core take its four-pass level body.

A ``depth``-level bridge has ``2^depth`` steps (the paper's "64-step"
workload is depth 6) and consumes exactly ``2^depth`` normals per path:
one for the terminal value, then ``2^d`` per level.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ...config import DTYPE
from ...errors import ConfigurationError


@dataclass(frozen=True)
class BridgeSchedule:
    """Precomputed per-level coefficient tables.

    Attributes
    ----------
    depth:
        Number of refinement levels; ``n_steps = 2**depth``.
    horizon:
        Total time ``T``.
    w_l / w_r / sig:
        Tuples of per-level arrays, each of length ``2^d`` at level ``d``.
    last_sig:
        ``sqrt(T)`` — scale of the terminal value's gaussian.
    uniform_sig:
        Derived from the tables, never passed: one ``sig`` per level
        when every ``w_l``/``w_r`` is exactly ``0.5`` and ``sig`` is
        constant within each level, else ``None``.
        ``dataclasses.replace`` re-derives it.
    """

    depth: int
    horizon: float
    w_l: tuple
    w_r: tuple
    sig: tuple
    last_sig: float
    uniform_sig: tuple | None = field(init=False, repr=False,
                                      compare=False)

    def __post_init__(self) -> None:
        uniform = all((wl == 0.5).all() and (wr == 0.5).all()
                      and (sg == sg[0]).all()
                      for wl, wr, sg in zip(self.w_l, self.w_r, self.sig))
        object.__setattr__(self, "uniform_sig", tuple(
            float(sg[0]) for sg in self.sig) if uniform else None)

    @property
    def n_steps(self) -> int:
        return 1 << self.depth

    @property
    def n_points(self) -> int:
        """Grid points including t=0."""
        return self.n_steps + 1

    def randoms_per_path(self) -> int:
        return self.n_steps


def make_schedule(depth: int, horizon: float = 1.0) -> BridgeSchedule:
    """Coefficient tables for a uniform dyadic bridge of ``2^depth``
    steps over ``[0, horizon]``."""
    if (isinstance(depth, bool)
            or not isinstance(depth, numbers.Integral) or depth < 1):
        raise ConfigurationError(
            f"depth must be an integer >= 1, got {depth!r}")
    if (not isinstance(horizon, numbers.Real)
            or not math.isfinite(horizon) or horizon <= 0):
        raise ConfigurationError(
            f"horizon must be positive and finite, got {horizon!r}")
    depth, horizon = int(depth), float(horizon)
    w_l, w_r, sig = [], [], []
    times = np.linspace(0.0, horizon, (1 << depth) + 1)
    for d in range(depth):
        n_mid = 1 << d
        span = (1 << (depth - d))          # grid points between brackets
        t_l = times[0::span][:n_mid]
        t_r = times[span::span][:n_mid]
        t_m = times[span // 2::span][:n_mid]
        wl = (t_r - t_m) / (t_r - t_l)
        wr = (t_m - t_l) / (t_r - t_l)
        sg = np.sqrt((t_m - t_l) * (t_r - t_m) / (t_r - t_l))
        w_l.append(np.ascontiguousarray(wl, dtype=DTYPE))
        w_r.append(np.ascontiguousarray(wr, dtype=DTYPE))
        sig.append(np.ascontiguousarray(sg, dtype=DTYPE))
    return BridgeSchedule(
        depth=depth, horizon=horizon,
        w_l=tuple(w_l), w_r=tuple(w_r), sig=tuple(sig),
        last_sig=float(np.sqrt(horizon)),
    )


def bridge_covariance(schedule: BridgeSchedule) -> np.ndarray:
    """Theoretical covariance of the bridge output: a standard Wiener
    process has ``Cov(W_s, W_t) = min(s, t)`` — the property the test
    suite checks the construction against."""
    t = np.linspace(0.0, schedule.horizon, schedule.n_points)
    return np.minimum.outer(t, t)

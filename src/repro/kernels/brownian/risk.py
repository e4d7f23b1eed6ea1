"""Barrier-option risk over bridged paths: CRN Greeks for free.

The Brownian-bridge kernel's risk workload: a down-and-out call
monitored on the bridge's dyadic grid, with delta and vega from
central differences.  The decisive structural fact is that the bridge
is **volatility-independent** — it constructs a standard Wiener path
``W`` — so every bumped scenario re-prices the *same* paths:
``log S(t) = ln S₀ + (r − σ²/2)t + σ·W(t)`` is a deterministic
reparametrization per scenario.  Common random numbers by
construction, at zero extra path-building cost: one bridge build
serves all five scenarios, the spot bumps share even the drifted path
(they only shift the log-barrier and scale the terminal), and only the
vol bumps redo the drift-and-scale pass.

Outputs are **per-path contributions** (`price`, `delta`, `vega`
vectors over paths): elementwise-deterministic, so the multi-output
slab is bit-identical across backends and slab plans, and any digest
or reduction downstream is reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from ...config import DTYPE
from ...parallel.slab import SlabExecutor
from ...plan import WorkspaceArena
from ...pricing.bump import BUMP_REL, check_bump
from ...results import ResultSlab
from .bridge import BridgeSchedule
from .vectorized import (bridge_blocks, bridge_workspace,
                         randoms_to_path_major)

#: Contract of the risk workload: at-the-money down-and-out call.
SPOT = 100.0
STRIKE = 100.0
#: Knock-out level as a fraction of spot.
BARRIER_REL = 0.85
RATE = 0.02
VOL = 0.3

#: Logical outputs of the barrier risk tier.
RISK_OUTPUTS = ("price", "delta", "vega")

_RISK_WRITES = ("price", "delta", "vega")
_RISK_SCHEMA = {name: (name,) for name in _RISK_WRITES}


def _bytes_per_path(schedule: BridgeSchedule) -> int:
    """Slab budget per path: randoms in, the bridged and the drifted
    log-path, the block-build share of :mod:`.parallel`'s accounting,
    and the per-path reduction vectors."""
    return (schedule.randoms_per_path() + 4 * schedule.n_points + 8) * 8


def _scenario_payoff(logs, m, st, alive, pay, spot_factor: float,
                     df: float) -> None:
    """Discounted knocked-out payoff for one spot scenario, in place.

    ``logs`` rows are ``(r − σ²/2)t + σW`` (spot-free); bumping spot
    shifts the whole log-path by a constant, so only the knock-out
    threshold and the terminal scale move.
    """
    s0 = SPOT * spot_factor
    np.multiply(st, s0, out=pay)           # S_T = s0·e^{drift+σW_T}
    pay -= STRIKE
    np.maximum(pay, 0.0, out=pay)
    # Alive iff min_t (drift + σW) > ln(B/s0).
    np.greater(m, math.log(BARRIER_REL * SPOT / s0), out=alive)
    pay *= alive
    pay *= df


def _drift_scale(W, times, vol: float, logs, drift, m, st) -> None:
    """``logs = (r − σ²/2)t + σW`` with running min and exp-terminal,
    in place, on step-major paths (a row per grid point; ``drift`` is
    the reusable ``(n_points, 1)`` column)."""
    np.multiply(times, RATE - 0.5 * vol * vol, out=drift)
    np.multiply(W, vol, out=logs)
    logs += drift
    np.amin(logs, axis=0, out=m)
    np.exp(logs[-1], out=st)


def _risk_workspace(schedule: BridgeSchedule, lanes: int,
                    reserve) -> dict:
    """One slab's buffers, each from ``reserve(name, shape[, dtype])``
    (:meth:`~repro.plan.WorkspaceArena.reserve`'s signature): the
    bridge block workspace, the slab's bridged and drifted paths and
    every per-path scenario vector.  Paths are step-major
    ``(n_points, lanes)``, as :func:`bridge_blocks` builds them."""
    n_pts = schedule.n_points
    return {"bridge": bridge_workspace(schedule, lanes, reserve),
            "W": reserve("W", (n_pts, lanes)),
            "logs": reserve("logs", (n_pts, lanes)),
            "drift": reserve("drift", (n_pts, 1)),
            "m": reserve("m", lanes), "st": reserve("st", lanes),
            "pay": reserve("pay", lanes),
            "alive": reserve("alive", lanes, bool)}


def _risk_slab(arrays: dict, consts: dict, a: int, b: int,
               slab: int) -> None:
    """Slab task, all four backends (module-level for process-backend
    pickling): build this slab's bridges once, revalue five scenarios,
    write per-path price and CRN central-difference delta/vega
    contributions — through the plan's workspace, or in a worker
    process, which owns no arena, one allocated for the call."""
    schedule = consts["schedule"]
    times, h = consts["times"], consts["h"]
    df = consts["df"]
    price, delta, vega = arrays["price"], arrays["delta"], arrays["vega"]
    ws = consts.get("ws") or _risk_workspace(
        schedule, b - a, WorkspaceArena("bbrisk").reserve)
    W, logs, drift = ws["W"], ws["logs"], ws["drift"]
    m, st, pay, alive = ws["m"], ws["st"], ws["pay"], ws["alive"]
    bridge_blocks(schedule, arrays["r"], W, ws["bridge"])
    # Base vol: one drift-and-scale pass serves base + both spot bumps.
    _drift_scale(W, times, VOL, logs, drift, m, st)
    _scenario_payoff(logs, m, st, alive, pay, 1.0, df)
    np.copyto(price, pay)
    _scenario_payoff(logs, m, st, alive, pay, 1.0 + h, df)
    np.copyto(delta, pay)
    _scenario_payoff(logs, m, st, alive, pay, 1.0 - h, df)
    delta -= pay
    delta /= 2.0 * h * SPOT
    # Vol bumps: same W, new drift and scale.
    _drift_scale(W, times, VOL * (1.0 + h), logs, drift, m, st)
    _scenario_payoff(logs, m, st, alive, pay, 1.0, df)
    np.copyto(vega, pay)
    _drift_scale(W, times, VOL * (1.0 - h), logs, drift, m, st)
    _scenario_payoff(logs, m, st, alive, pay, 1.0, df)
    vega -= pay
    vega /= 2.0 * h * VOL


def _result_slab(backing: np.ndarray, n: int) -> ResultSlab:
    return ResultSlab(
        {"price": backing[:n], "delta": backing[n:2 * n],
         "vega": backing[2 * n:]},
        backing=backing)


def _times(schedule: BridgeSchedule) -> np.ndarray:
    """Grid times as a column, to broadcast across step-major paths."""
    return np.linspace(0.0, schedule.horizon, schedule.n_points,
                       dtype=DTYPE)[:, None]


def compile_barrier_risk(schedule: BridgeSchedule, randoms: np.ndarray,
                         executor: SlabExecutor, arena,
                         h: float = BUMP_REL):
    """Plan-compile the barrier risk tier: the path-major draw block,
    the ``3n`` result backing, and — per in-process slab — the bridge
    block workspace plus every scenario buffer live in ``arena``; warm
    runs build, revalue and difference with zero hot-path
    allocations."""
    check_bump(h)
    r_src = randoms_to_path_major(schedule, randoms)
    n_paths = r_src.shape[0]
    backing = arena.reserve("result", 3 * n_paths)
    views = _result_slab(backing, n_paths)
    consts = {"schedule": schedule, "times": _times(schedule), "h": h,
              "df": float(np.exp(-RATE * schedule.horizon))}
    per_slab = None
    if not executor.out_of_process:
        def per_slab(a, b, i):
            return {"ws": _risk_workspace(schedule, b - a,
                                          arena.scoped(i))}
    dispatch = arena.adopt(executor.compile_lanes(
        _risk_slab, n_paths, bytes_per_item=_bytes_per_path(schedule),
        sliced={"r": r_src, "price": views["price"],
                "delta": views["delta"], "vega": views["vega"]},
        writes=_RISK_WRITES,
        outputs=_RISK_SCHEMA,
        consts=consts, per_slab=per_slab, tag="bbrisk"))

    def run() -> ResultSlab:
        dispatch.run()
        return views

    return run

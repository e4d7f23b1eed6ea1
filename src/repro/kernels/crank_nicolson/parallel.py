"""Crank-Nicolson *parallel* tier: slab over independent contracts.

The paper parallelises the American-option benchmark across options
(each contract's lattice march is independent), so the slab engine
partitions the option group and prices each slab's contracts in place
into a view of the preallocated result.  With the default ``red_black``
solver a slab is *one* march (:func:`~.planned.march_slab`), every
ufunc call spanning contracts × lattice points, on all four backends;
the lane-accurate solvers (``gsor``, ``wavefront*`` — the modeled
Fig. 7/8 tiers) keep one cold :func:`~.solver.solve` per contract.
Every lane is deterministic — no RNG, and its ω-adaptation and
convergence depend only on its own sweep history — so prices are
bit-identical to a serial :func:`~.solver.solve_batch` call with the
same solver for any backend, slab partition or worker count.
"""

from __future__ import annotations

import numpy as np

from ...errors import DomainError
from ...parallel.slab import SlabExecutor
from .gsor import check_solver_args
from .planned import march_slab, plan_slab
from .solver import solve


def _solve_slab(arrays: dict, consts: dict, a: int, b: int,
                slab: int) -> None:
    """Slab task (module-level for process-backend pickling).
    ``red_black`` marches the slab, through the planned workspace when
    the dispatch ships one, else one built for the options shipped via
    ``per_slab``; the other solvers run one cold solve per contract."""
    out = arrays["out"]
    n_points, n_steps = consts["n_points"], consts["n_steps"]
    if consts["solver"] != "red_black":
        for j, opt in enumerate(consts["options"]):
            out[j] = solve(opt, n_points, n_steps, consts["solver"],
                           **consts["kwargs"]).price
        return
    ws = consts.get("ws") or plan_slab(
        consts["options"], n_points, n_steps,
        lambda name, shape, dtype: np.empty(shape, dtype=dtype))
    march_slab(ws, out, **consts["kwargs"])


def compile_solve_batch(options, n_points: int, n_steps: int,
                        executor: SlabExecutor, arena,
                        solver: str = "red_black", **kwargs):
    """Plan-compile the slab-parallel contract pricer.

    Hoists what depends only on the contracts: the grid build, the
    transformed-payoff spatial profile, the whole Dirichlet boundary
    sequence, the untransform/interp stencil (see :mod:`.planned`),
    plus one slab-march workspace per slab.  The planned march exists
    for the default ``red_black`` solver; other solvers — and
    out-of-process workers, which march in their own address spaces —
    ship the options and build their state in the slab body (still a
    frozen, validated dispatch).  ``omega``, ``tol`` and ``max_sweeps``
    are checked here, before anything is reserved.
    """
    check_solver_args(kwargs.get("omega", 1.0), kwargs.get("tol", 1e-14),
                      kwargs.get("max_sweeps", 10_000))
    options = list(options)
    if not options:
        raise DomainError("empty option group")
    nopt = len(options)
    out = arena.reserve("result", nopt)
    if executor.out_of_process or solver != "red_black":
        def per_slab(a, b, i):
            return {"options": options[a:b]}
    else:
        def per_slab(a, b, i):
            return {"ws": plan_slab(
                options[a:b], n_points, n_steps,
                lambda name, shape, dtype:
                arena.reserve(f"{name}{i}", shape, dtype))}
    # Per option in flight: u/b/g lattice rows plus the grid tables.
    dispatch = arena.adopt(executor.compile_lanes(
        _solve_slab, nopt, bytes_per_item=8 * 8 * n_points,
        sliced={"out": out}, writes=("out",),
        consts={"n_points": n_points, "n_steps": n_steps,
                "solver": solver, "kwargs": kwargs},
        per_slab=per_slab, tag="cn"))

    def run() -> np.ndarray:
        dispatch.run()
        return out

    return run

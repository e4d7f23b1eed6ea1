"""Plan-compiled Crank-Nicolson march (lane-batched red-black PSOR,
zero-alloc).

:func:`~.solver.solve` rebuilds the same τ-indexed state on every call:
the grid, the transformed payoff's spatial profile, the Dirichlet
boundary sequence, the untransform factor and the spot-interpolation
stencil all depend only on the *contract*, not on any streamed data.
:func:`plan_contract` hoists every one of them to compile time,
:func:`plan_slab` lays a slab's contracts side by side on one flat
axis, and :func:`march_slab` marches them together through caller-owned
workspace buffers: the Python-level loops are the time step and the SOR
sweep, and every ufunc call spans *contracts × lattice points*.

Bit-exactness contract: every floating-point operation the march
performs on a lane is the same operation, on the same values, in the
same order, as the cold ``solve(..., solver="red_black")`` path on that
contract alone — only *where* results land changes.  The fused
coefficients ``A = ω·(coeff·α/2)``, ``C = 1−ω`` and ``Bw = (ω·coeff)·b``
become per-element arrays of the oracle's scalars (``Bw`` of its
array), and every lane tests convergence on the oracle's sweeps —
every :data:`~.gsor.RB_CHECK_EVERY` and at ``max_sweeps`` — with the
squared-update sum a row reduce over the lane's own elements.  A lane is
frozen after its own convergence sweep by ``A = Bw = 0, C = 1``, which
makes its half-sweep ``u·1 + 0`` — itself.  The spot price replays
``np.interp``'s exact branch structure (``slope·(x−x_j) + f_j`` with the
same edge cases), so prices agree to the last bit whatever contracts
share the slab.
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...errors import ConvergenceError, DomainError
from ...pricing.options import ExerciseStyle, OptionKind
from .grid import (HeatGrid, boundary_values, make_grid,
                   transformed_payoff)
from .gsor import RB_CHECK_EVERY, adapt_omega, check_solver_args


class ContractPlan:
    """What :func:`march_slab` keeps per lane beside the slab arrays:
    the contract's name (for errors) and its spot-interpolation
    stencil."""

    __slots__ = ("label", "j", "exact", "f1", "f2", "dxs", "denom")


def plan_contract(grid: HeatGrid, ws: dict, lane: int) -> ContractPlan:
    """Precompute one contract's march constants into lane ``lane`` of
    the slab arrays ``ws``.

    Mirrors the setup half of :func:`~.solver.solve`: the grid build,
    the τ-independent pieces of ``transformed_payoff`` (``g(x,τ) =
    e^{xc + tc·τ}·intrinsic`` splits into a spatial array and a per-step
    scalar shift), the full boundary sequence, and the two untransform
    factors the spot interpolation actually reads.
    """
    opt, n_points, k, x = grid.opt, grid.n_points, grid.k, grid.x
    pre = ContractPlan()
    pre.label = f"{opt.kind.name} K={opt.strike:g}"
    projected = ws["projected"][lane] = opt.style is ExerciseStyle.AMERICAN
    ws["alpha1"][lane] = 1.0 - grid.alpha
    ws["alpha2"][lane] = 0.5 * grid.alpha
    # The oracle's scalars, by its own expressions: A = ω·ca, ω·coeff.
    coeff = 1.0 / (1.0 + grid.alpha)
    ws["coeff"][lane] = coeff
    ws["ca"][lane] = coeff * (0.5 * grid.alpha)

    # transformed_payoff(grid, tau) == exp(xc + tc*tau) * intrinsic,
    # with xc and tc evaluated by the very same expressions it uses.
    ws["xc"][lane] = (0.5 * (k - 1.0) * x)[1:-1]
    tc = 0.25 * (k + 1.0) ** 2
    if opt.kind is OptionKind.PUT:
        intrinsic = np.maximum(1.0 - np.exp(x), 0.0)
    else:
        intrinsic = np.maximum(np.exp(x) - 1.0, 0.0)
    ws["intrinsic"][lane] = intrinsic[1:-1]
    ws["u0"][lane] = transformed_payoff(grid, 0.0)

    # Per-step scalars: the payoff shift and the Dirichlet pair.
    for step in range(grid.n_steps):
        tau = (step + 1) * grid.dtau
        ws["shifts"][step, lane] = tc * tau
        ws["ends"][step, lane] = boundary_values(grid, tau, projected)

    # Spot price = np.interp(x_spot, x, factor * u) with factor the
    # untransform at tau_max; only the stencil's own factor values are
    # needed, and the interpolation replays np.interp's branches.
    factor = opt.strike * np.exp(
        -0.5 * (k - 1.0) * x - 0.25 * (k + 1.0) ** 2 * grid.tau_max)
    x_spot = np.log(opt.spot / opt.strike)
    if not x[0] <= x_spot <= x[-1]:
        raise DomainError(
            f"spot {opt.spot} outside the lattice "
            f"[{opt.strike * np.exp(x[0]):.2f}, "
            f"{opt.strike * np.exp(x[-1]):.2f}]"
        )
    j = int(np.searchsorted(x, x_spot, side="right")) - 1
    pre.j = j
    pre.f1 = float(factor[j])
    # On the last node or an exact hit np.interp returns the node value.
    pre.exact = j == n_points - 1 or float(x[j]) == float(x_spot)
    if not pre.exact:
        pre.f2 = float(factor[j + 1])
        pre.denom = float(x[j + 1]) - float(x[j])
        pre.dxs = float(x_spot) - float(x[j])
    return pre


def plan_slab(options, n_points: int, n_steps: int, reserve) -> dict:
    """One slab's march workspace through ``reserve(name, shape,
    dtype)``: its contracts side by side on one flat axis, their
    :class:`ContractPlan` records under ``"plans"``.

    Lane ``l``'s point ``j`` sits at flat index ``1 + l*stride + j``
    (``stride`` = ``n_points`` rounded up to even, one pad element at
    each end), so the odd points of *every* lane are one strided 1-D
    view, their left and right neighbours two more of the same length,
    and likewise the even points; the fused coefficients ``A``, ``C``
    and ``Bw`` are expanded per parity element, so no sweep call
    broadcasts or iterates in 2-D.  Dirichlet and pad elements ride
    along inert: their ``A`` and ``Bw`` are 0, their ``C`` 1 and their
    obstacle ``-inf``, as is a European lane's.
    """
    # Grids first: they validate the lattice sizes the shapes below use.
    grids = [make_grid(opt, n_points, n_steps) for opt in options]
    lanes = len(options)
    n = n_points
    half = (n + 1) // 2                # parity elements per lane
    flat = 2 * half * lanes
    ws = {}
    for name, shape in (
            ("ub", (2, flat + 2)), ("g", flat + 2),
            ("e1", (lanes, n - 2)), ("e2", (lanes, n - 2)),
            ("xc", (lanes, n - 2)), ("intrinsic", (lanes, n - 2)),
            ("u0", (lanes, n)), ("shifts", (n_steps, lanes, 1)),
            ("ends", (n_steps, lanes, 2)),
            ("y", flat // 2), ("t", flat // 2),
            ("coeff", (lanes, 1)), ("ca", (lanes, 1)),
            ("alpha1", (lanes, 1)), ("alpha2", (lanes, 1)),
            ("omega", (lanes, 1)), ("mask", (2, lanes, half)),
            ("om", (2, lanes, half)), ("A", (2, lanes, half)),
            ("C", (2, lanes, half)), ("Bw", (2, lanes, half)),
            ("err2", (2, lanes)), ("err", lanes)):
        ws[name] = reserve(name, shape, DTYPE)
    ws["done"] = reserve("done", lanes, bool)
    ws["projected"] = reserve("projected", (lanes, 1), bool)
    ub, g, err2 = ws["ub"], ws["g"], ws["err2"]
    ub[:] = 0.0
    g[:] = -np.inf
    # (lanes, n) views of the flat axes; ub2[0] is u, ub2[1] is b.
    ws["ub2"] = ub[:, 1:flat + 1].reshape(2, lanes, 2 * half)[..., :n]
    ws["ub_ends"] = ws["ub2"][..., ::n - 1]     # points 0 and n-1
    ws["g_in"] = g[1:flat + 1].reshape(lanes, 2 * half)[:, 1:n - 1]
    ws["plans"] = [plan_contract(grid, ws, lane)
                   for lane, grid in enumerate(grids)]
    ws["obstacle"] = bool(ws["projected"].any())
    # Interior mask per parity: parity element k of a lane is point
    # 2k+1 (odd set) or 2k (even set); ω lives only on points 1..n-2.
    counts = [len(range(p, n - 1, 2)) for p in (1, 2)]
    ws["mask"][:] = 0.0
    ws["mask"][0, :, :counts[0]] = 1.0
    ws["mask"][1, :, 1:1 + counts[1]] = 1.0
    u, b = ub
    t2 = ws["t"].reshape(lanes, half)
    A, C, Bw = (ws[name].reshape(2, -1) for name in ("A", "C", "Bw"))
    # Per parity: (u_j, u_left, u_right, g_j, A, C, Bw, the lanes' own
    # squared-update rows, their sums).
    ws["rb"] = (
        (u[2:flat + 1:2], u[1:flat:2], u[3:flat + 2:2], g[2:flat + 1:2],
         A[0], C[0], Bw[0], t2[:, :counts[0]], err2[0]),
        (u[1:flat:2], u[0:flat - 1:2], u[2:flat + 1:2], g[1:flat:2],
         A[1], C[1], Bw[1], t2[:, 1:1 + counts[1]], err2[1]),
    )
    # Per parity: (b_j, ω·coeff, Bw) for the per-step Bw = (ω·coeff)·b.
    om = ws["om"].reshape(2, -1)
    ws["bw_terms"] = ((b[2:flat + 1:2], om[0], Bw[0]),
                      (b[1:flat:2], om[1], Bw[1]))
    return ws


def _rb_solve(ws: dict, tol: float, max_sweeps: int) -> list:
    """One implicit solve of every lane: red-black projected SOR over
    the flat parity views on the step's fused coefficients,
    allocation-free.  Each lane's iterates are those of
    :func:`~.gsor.gsor_solve_vectorized_rb` on that lane alone.  Only
    a test sweep (every :data:`~.gsor.RB_CHECK_EVERY`, and the last)
    keeps the update in ``y`` to form the squared-update rows; the
    others write ``u`` in place.  Returns every lane's own convergence
    sweep, after which its coefficients are made inert (``A = Bw = 0,
    C = 1``) so later sweeps leave it untouched."""
    y, t = ws["y"], ws["t"]
    A, C, Bw = ws["A"], ws["C"], ws["Bw"]
    err, done = ws["err"], ws["done"]
    err_odd, err_even = ws["err2"]
    rb, projected = ws["rb"], ws["obstacle"]
    sweeps = [0] * len(done)
    n_done = 0
    for sweep in range(1, max_sweeps + 1):
        test = sweep % RB_CHECK_EVERY == 0 or sweep == max_sweeps
        for u_j, u_l, u_r, g_j, a, c, bw, t_rows, err_p in rb:
            # y = (u_l + u_r)·A + Bw + u_j·C, then max(g_j, y).
            np.multiply(u_j, c, out=t)
            np.add(u_l, u_r, out=y)
            np.multiply(y, a, out=y)
            np.add(y, bw, out=y)
            if not test:
                if projected:
                    np.add(y, t, out=y)
                    np.maximum(g_j, y, out=u_j)
                else:
                    np.add(y, t, out=u_j)
                continue
            np.add(y, t, out=y)
            if projected:
                np.maximum(g_j, y, out=y)
            np.subtract(y, u_j, out=t)
            np.multiply(t, t, out=t)
            np.add.reduce(t_rows, axis=1, out=err_p)
            np.copyto(u_j, y)
        if not test:
            continue
        np.add(err_odd, err_even, out=err)
        np.less_equal(err, tol, out=done)
        if np.count_nonzero(done) == n_done:
            continue
        for lane, ok in enumerate(done.tolist()):
            if ok and not sweeps[lane]:
                sweeps[lane] = sweep
                A[:, lane] = 0.0
                Bw[:, lane] = 0.0
                C[:, lane] = 1.0
                n_done += 1
        if n_done == len(done):
            return sweeps
    lane = sweeps.index(0)
    raise ConvergenceError(
        f"red-black SOR did not reach tol={tol} in {max_sweeps} sweeps "
        f"for {ws['plans'][lane].label} (residual {err[lane]:.3e})",
        max_sweeps, float(err[lane]),
    )


def march_slab(ws: dict, out: np.ndarray, omega: float = 1.0,
               tol: float = 1e-14, max_sweeps: int = 10_000) -> None:
    """March one slab's planned contracts through their CN steps and
    write each spot price to ``out``.  The defaults match
    :func:`~.solver.solve`'s (``tol=1e-14``, not the raw solver's
    ``1e-9``).  Lanes share nothing but the calls: each keeps its own
    ω history and convergence sweep, so prices do not depend on which
    contracts share a slab.  Raises ``ConfigurationError`` for arguments
    no PSOR solve can honour (:func:`~.gsor.check_solver_args`)."""
    check_solver_args(omega, tol, max_sweeps)
    ub2, e1, e2 = ws["ub2"], ws["e1"], ws["e2"]
    u2, b2 = ub2
    alpha1, alpha2 = ws["alpha1"], ws["alpha2"]
    omega_col, om, mask = ws["omega"], ws["om"], ws["mask"]
    lanes = len(ws["plans"])
    np.copyto(u2, ws["u0"])
    omega_col[:] = omega
    prev_sweeps = [np.inf] * lanes   # Listing 6 seeds oldloops high
    for step in range(len(ws["ends"])):
        if ws["obstacle"]:
            # Obstacle refresh: exp(xc + tc*tau) * intrinsic, written
            # to the projected lanes' interiors only.
            np.add(ws["xc"], ws["shifts"][step], out=e1)
            np.exp(e1, out=e1)
            np.multiply(e1, ws["intrinsic"], out=ws["g_in"],
                        where=ws["projected"])
        # Explicit half step: alpha1*u[1:-1] + alpha2*(u[2:] + u[:-2]).
        np.add(u2[:, 2:], u2[:, :-2], out=e2)
        np.multiply(e2, alpha2, out=e2)
        np.multiply(u2[:, 1:-1], alpha1, out=e1)
        np.add(e1, e2, out=b2[:, 1:-1])
        np.copyto(ws["ub_ends"], ws["ends"][step])   # Dirichlet pairs
        # Fused coefficients: om = ω on interior points, 0 elsewhere.
        np.multiply(mask, omega_col, out=om)
        np.subtract(1.0, om, out=ws["C"])
        np.multiply(om, ws["ca"], out=ws["A"])
        np.multiply(om, ws["coeff"], out=om)
        for b_j, omega_coeff, bw in ws["bw_terms"]:
            np.multiply(omega_coeff, b_j, out=bw)
        sweeps = _rb_solve(ws, tol, max_sweeps)
        for lane in range(lanes):
            omega_col[lane, 0] = adapt_omega(
                float(omega_col[lane, 0]), sweeps[lane], prev_sweeps[lane])
        prev_sweeps = sweeps
    # Spot price: np.interp's branch structure over factor*u.
    for lane, pre in enumerate(ws["plans"]):
        fy1 = pre.f1 * float(u2[lane, pre.j])
        if pre.exact:
            out[lane] = fy1
            continue
        fy2 = pre.f2 * float(u2[lane, pre.j + 1])
        slope = (fy2 - fy1) / pre.denom
        out[lane] = slope * pre.dxs + fy1

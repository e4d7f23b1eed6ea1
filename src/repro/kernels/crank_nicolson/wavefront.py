"""Wavefront-vectorized projected SOR (paper Sec. IV-E2, Fig. 7).

The GSOR update ``u_j^{k} = f(u_{j-1}^{k}, u_{j+1}^{k-1})`` couples both
the space loop and the convergence loop, defeating direct vectorization.
The paper's scheme: *unroll the convergence loop by the vector width W*
and walk the (sweep k, space j) iteration space along wavefronts
``w = 2k + j`` — both dependencies of a node on wave ``w`` live on wave
``w − 1``, so the ≤W nodes of a wave (one per unrolled sweep, at spatial
stride 2) compute in one vector operation. A band of W sweeps then has a
prologue and epilogue triangle and a steady-state full-width region,
exactly Fig. 7.

Because the wavefront schedule evaluates the *same* dependency DAG with
the same arithmetic, its iterates are bit-identical to scalar GSOR with
convergence checked every W sweeps — asserted in the test suite.

Two variants:

* :func:`wavefront_solve` — direct form; a wave's lanes sit at spatial
  stride 2, so every access is a gather/scatter (the *intermediate*
  "manual SIMD" tier of Fig. 8).
* :func:`wavefront_solve_transformed` — the *advanced* tier: ``B``, ``G``
  and ``U`` are physically reordered into even/odd parity planes, which
  makes every wave's accesses unit-stride slices (all of a wave's ``j``
  indices share parity since ``j = w − 2k``).
"""

from __future__ import annotations

import numpy as np

from ...config import DTYPE
from ...errors import ConvergenceError
from .gsor import SolveStats, check_solver_args


def _band_waves(k_lo: int, k_hi: int, n: int):
    """Wave numbers covering sweeps k_lo..k_hi over interior j=1..n−2."""
    return range(2 * k_lo + 1, 2 * k_hi + (n - 2) + 1)


def wavefront_solve(b: np.ndarray, u: np.ndarray, g: np.ndarray | None,
                    alpha: float, omega: float = 1.0, tol: float = 1e-9,
                    width: int = 8, max_sweeps: int = 10_000) -> SolveStats:
    """Implicit solve, in place on ``u``, by W-unrolled wavefront PSOR
    with strided (gathered) accesses."""
    check_solver_args(omega, tol, max_sweeps)
    if width < 1:
        raise ValueError("width must be >= 1")
    n = u.shape[0]
    coeff = 1.0 / (1.0 + alpha)
    ha = 0.5 * alpha
    projected = g is not None
    sweeps_done = 0
    while sweeps_done < max_sweeps:
        k_lo = sweeps_done + 1
        k_hi = sweeps_done + width
        k_band = np.arange(k_lo, k_hi + 1)
        errors = np.zeros(width, dtype=DTYPE)
        for w in _band_waves(k_lo, k_hi, n):
            j = w - 2 * k_band
            valid = (j >= 1) & (j <= n - 2)
            if not valid.any():
                continue
            jj = j[valid]
            y = coeff * (b[jj] + ha * (u[jj - 1] + u[jj + 1]))
            y = u[jj] + omega * (y - u[jj])
            if projected:
                y = np.maximum(g[jj], y)
            d = y - u[jj]
            errors[valid] += d * d
            u[jj] = y
        sweeps_done = k_hi
        if errors[-1] <= tol:
            return SolveStats(sweeps=sweeps_done, residual=float(errors[-1]))
    raise ConvergenceError(
        f"wavefront PSOR did not reach tol={tol} in {max_sweeps} sweeps "
        f"(residual {float(errors[-1]):.3e})", max_sweeps, float(errors[-1]),
    )


def split_parity(a: np.ndarray) -> tuple:
    """The paper's data-structure transform: copy into even/odd planes."""
    return a[0::2].copy(), a[1::2].copy()


def merge_parity(even: np.ndarray, odd: np.ndarray, out: np.ndarray) -> None:
    out[0::2] = even
    out[1::2] = odd


def wavefront_solve_transformed(b: np.ndarray, u: np.ndarray,
                                g: np.ndarray | None, alpha: float,
                                omega: float = 1.0, tol: float = 1e-9,
                                width: int = 8,
                                max_sweeps: int = 10_000) -> SolveStats:
    """Same wavefront schedule on parity-reordered arrays: every access
    is a unit-stride slice (the Fig. 8 advanced tier). Results are
    bit-identical to :func:`wavefront_solve`."""
    check_solver_args(omega, tol, max_sweeps)
    if width < 1:
        raise ValueError("width must be >= 1")
    n = u.shape[0]
    coeff = 1.0 / (1.0 + alpha)
    ha = 0.5 * alpha
    projected = g is not None
    ue, uo = split_parity(u)
    be, bo = split_parity(b)
    if projected:
        ge, go = split_parity(g)
    sweeps_done = 0
    while sweeps_done < max_sweeps:
        k_lo = sweeps_done + 1
        k_hi = sweeps_done + width
        errors = np.zeros(width, dtype=DTYPE)
        for w in _band_waves(k_lo, k_hi, n):
            p = w & 1
            # Nodes (k, j = w − 2k), j interior, written as parity-plane
            # indices m = (j − p) / 2, processed in ascending-m order.
            j_hi = min(n - 2, w - 2 * k_lo)
            j_lo = max(1, w - 2 * k_hi)
            # Snap the range onto this wave's parity.
            if (j_hi & 1) != p:
                j_hi -= 1
            if (j_lo & 1) != p:
                j_lo += 1
            if j_lo > j_hi:
                continue
            m_lo = (j_lo - p) // 2
            m_hi = (j_hi - p) // 2
            cnt = m_hi - m_lo + 1
            if p:
                cur, bcur = uo, bo
                gcur = go if projected else None
                left = ue[m_lo:m_hi + 1]
                right = ue[m_lo + 1:m_hi + 2]
            else:
                cur, bcur = ue, be
                gcur = ge if projected else None
                left = uo[m_lo - 1:m_hi]
                right = uo[m_lo:m_hi + 1]
            seg = slice(m_lo, m_hi + 1)
            y = coeff * (bcur[seg] + ha * (left + right))
            y = cur[seg] + omega * (y - cur[seg])
            if projected:
                y = np.maximum(gcur[seg], y)
            d = y - cur[seg]
            # Lane m ↔ sweep k = (w − j)/2 = (w − p)/2 − m, so ascending m
            # maps to descending k within the band.
            k_of_m = (w - p) // 2 - (m_lo + np.arange(cnt))
            errors[k_of_m - k_lo] += d * d
            cur[seg] = y
        sweeps_done = k_hi
        if errors[-1] <= tol:
            merge_parity(ue, uo, u)
            return SolveStats(sweeps=sweeps_done, residual=float(errors[-1]))
    merge_parity(ue, uo, u)
    raise ConvergenceError(
        f"transformed wavefront PSOR did not reach tol={tol} in "
        f"{max_sweeps} sweeps (residual {float(errors[-1]):.3e})",
        max_sweeps, float(errors[-1]),
    )

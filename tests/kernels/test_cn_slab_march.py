"""Lane-batched Crank-Nicolson slab march: per-lane independence.

The parallel tier marches a slab's contracts together, one ufunc call
spanning contracts × lattice points.  Its contract is that no lane can
tell: whatever contracts share a slab, each price is bit-identical to
the single-contract red-black solve (``solve_batch(..., "red_black")``
is the loop reference kept for exactly this comparison).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, ConvergenceError
from repro.kernels.crank_nicolson import SOLVERS, solve, solve_batch
from repro.kernels.crank_nicolson.gsor import RB_CHECK_EVERY
from repro.kernels.crank_nicolson.parallel import compile_solve_batch
from repro.kernels.crank_nicolson.planned import march_slab, plan_slab
from repro.parallel import SlabExecutor
from repro.plan import WorkspaceArena, audit_allocations, one_shot
from repro.pricing import Option
from repro.pricing.options import ExerciseStyle, OptionKind

N_POINTS, N_STEPS = 21, 8


def contract(strike, vol=0.3, expiry=1.0, kind=OptionKind.PUT,
             style=ExerciseStyle.AMERICAN, spot=100.0):
    return Option(spot=spot, strike=float(strike), expiry=expiry,
                  rate=0.05, vol=vol, kind=kind, style=style)


def march(options, n_points=N_POINTS, n_steps=N_STEPS, **kwargs):
    """One slab march of ``options`` on heap buffers."""
    ws = plan_slab(options, n_points, n_steps,
                   lambda name, shape, dtype: np.empty(shape, dtype=dtype))
    out = np.empty(len(options))
    march_slab(ws, out, **kwargs)
    return out, ws


#: Fast, middling and slow lanes (4, 4 and 8 sweeps a step on the test
#: lattice, whose convergence is tested every 4), a European call and a
#: call struck off the spot.
MIXED = [
    contract(100, vol=0.05, expiry=0.1),
    contract(95, vol=0.1),
    contract(100),
    contract(100, kind=OptionKind.CALL, style=ExerciseStyle.EUROPEAN),
    contract(110, vol=0.4, kind=OptionKind.CALL),
    contract(90, style=ExerciseStyle.EUROPEAN),
]

contracts = st.builds(
    contract,
    strike=st.floats(80.0, 125.0),
    vol=st.floats(0.05, 0.6),
    expiry=st.floats(0.1, 2.0),
    kind=st.sampled_from(list(OptionKind)),
    style=st.sampled_from(list(ExerciseStyle)),
)


class TestSlabPartition:
    @settings(deadline=None, max_examples=25)
    @given(options=st.lists(contracts, min_size=1, max_size=6),
           data=st.data())
    def test_any_split_is_bit_identical(self, options, data):
        cuts = data.draw(st.sets(st.integers(1, len(options) - 1))
                         if len(options) > 1 else st.just(set()))
        edges = [0, *sorted(cuts), len(options)]
        split = np.concatenate([march(options[a:b])[0]
                                for a, b in zip(edges, edges[1:])])
        reference = solve_batch(options, N_POINTS, N_STEPS, "red_black")
        assert np.array_equal(split, reference)
        assert np.array_equal(march(options)[0], reference)
        assert np.array_equal(
            np.concatenate([march([o])[0] for o in options]), reference)

    @pytest.mark.parametrize("n_points", [20, 21, 33, 262])
    def test_mixed_slab_matches_single_contract_solves(self, n_points):
        # Put/call, European/American and odd/even lattices in one slab;
        # 262 points put 130 in a row sum, past numpy's pairwise block.
        prices, ws = march(MIXED, n_points, N_STEPS)
        assert np.array_equal(
            prices, solve_batch(MIXED, n_points, N_STEPS, "red_black"))
        # Spot == strike sits exactly on the middle node of an odd
        # lattice (np.interp's exact-hit branch), between nodes on an
        # even one.
        exact = [pre.exact for pre in ws["plans"]]
        assert exact[0] == exact[2] == (n_points % 2 == 1)
        assert not exact[1]

    def test_lanes_converge_at_different_sweeps(self):
        # On 41 points the three lanes need 4, 8 and 16 sweeps a step
        # (on 21 points the first two both stop at the first test).
        sweeps = [solve(o, 41, N_STEPS, "red_black").total_sweeps
                  for o in MIXED[:3]]
        assert len(set(sweeps)) == 3
        assert np.array_equal(
            march(MIXED[:3], 41)[0],
            solve_batch(MIXED[:3], 41, N_STEPS, "red_black"))

    def test_backend_partitions_agree(self):
        # serial marches one cache-sized slab, the pooled thread
        # backend one lane per slab, the daemon builds workspaces cold.
        got = {}
        for backend in ("serial", "thread", "daemon"):
            with SlabExecutor(backend, n_workers=2) as ex:
                got[backend] = one_shot(compile_solve_batch, MIXED,
                                        N_POINTS, N_STEPS, executor=ex)
        reference = solve_batch(MIXED, N_POINTS, N_STEPS, "red_black")
        for backend, prices in got.items():
            assert np.array_equal(prices, reference), backend


class TestCheckStride:
    @pytest.mark.parametrize("n_points, max_sweeps",
                             [(N_POINTS, 10_000), (41, 10_000),
                              (N_POINTS, 7)])
    def test_step_sweeps_are_test_sweeps(self, monkeypatch, n_points,
                                         max_sweeps):
        # Convergence is tested every RB_CHECK_EVERY sweeps and at
        # max_sweeps, so no step can report any other count.
        counts = []
        oracle = SOLVERS["red_black"]

        def recording(*args, **kwargs):
            stats = oracle(*args, **kwargs)
            counts.append(stats.sweeps)
            return stats

        monkeypatch.setitem(SOLVERS, "red_black", recording)
        for opt in MIXED[:3]:
            solve(opt, n_points, N_STEPS, "red_black",
                  max_sweeps=max_sweeps)
        assert len(counts) == 3 * N_STEPS
        assert all(c % RB_CHECK_EVERY == 0 or c == max_sweeps
                   for c in counts), counts
        if max_sweeps == 7:
            # The slow lane converges on the forced test at sweep 7.
            assert 7 % RB_CHECK_EVERY and 7 in counts

    def test_forced_test_sweep_is_bit_identical(self):
        prices, _ = march(MIXED, max_sweeps=7)
        assert np.array_equal(
            prices, solve_batch(MIXED, N_POINTS, N_STEPS, "red_black",
                                max_sweeps=7))


class TestConvergenceError:
    def test_names_the_slow_lane(self):
        slow = MIXED[2]
        # 5 is off the test stride: the forced test at max_sweeps
        # forms the residual, planned and cold alike.
        assert 5 % RB_CHECK_EVERY
        with pytest.raises(ConvergenceError) as alone:
            solve(slow, N_POINTS, N_STEPS, "red_black", max_sweeps=5)
        with SlabExecutor("serial") as ex:
            with pytest.raises(ConvergenceError) as batched:
                one_shot(compile_solve_batch, MIXED[:3], N_POINTS,
                         N_STEPS, executor=ex, max_sweeps=5)
        err = batched.value
        assert "PUT K=100" in str(err)
        assert err.iterations == alone.value.iterations == 5
        # The lane's own residual, not a slab-wide sum.
        assert err.residual == alone.value.residual > 0.0

    def test_fast_lanes_alone_converge(self):
        prices, _ = march(MIXED[:2], max_sweeps=5)
        assert np.array_equal(
            prices, solve_batch(MIXED[:2], N_POINTS, N_STEPS, "red_black"))


BAD_ARGS = [{"omega": 0.0}, {"omega": 2.0}, {"omega": float("nan")},
            {"tol": float("nan")}, {"tol": -1.0}, {"max_sweeps": 0},
            {"max_sweeps": True}]


class TestArguments:
    @pytest.mark.parametrize("bad", BAD_ARGS, ids=str)
    def test_march_rejects(self, bad):
        ws = plan_slab(MIXED, N_POINTS, N_STEPS,
                       lambda name, shape, dtype: np.empty(shape, dtype))
        out = np.full(len(MIXED), -1.0)
        with pytest.raises(ConfigurationError):
            march_slab(ws, out, **bad)
        assert (out == -1.0).all()

    @pytest.mark.parametrize("solver", ["red_black", "gsor"])
    @pytest.mark.parametrize("bad", BAD_ARGS, ids=str)
    def test_compile_rejects_before_reserving(self, bad, solver):
        arena = WorkspaceArena(tag="cn-test")
        with SlabExecutor("serial") as ex:
            with pytest.raises(ConfigurationError):
                compile_solve_batch(MIXED, N_POINTS, N_STEPS, ex, arena,
                                    solver=solver, **bad)
        assert arena.nbytes == 0

    def test_parallel_tier_rejects_omega_zero(self):
        with SlabExecutor("serial") as ex:
            with pytest.raises(ConfigurationError):
                one_shot(compile_solve_batch, MIXED[:1], 64, 50,
                         executor=ex, omega=0.0)


class TestAllocation:
    def test_mixed_slab_march_allocates_nothing(self):
        # The masked obstacle refresh (European lanes skipped) and the
        # per-lane freeze must stay inside the planned buffers.
        arena = WorkspaceArena(tag="cn-test")
        ws = plan_slab(MIXED, N_POINTS, N_STEPS, arena.reserve)
        out = arena.reserve("out", len(MIXED))
        arena.freeze()
        march_slab(ws, out)
        assert audit_allocations(lambda: march_slab(ws, out)).numpy_bytes == 0

"""Crank-Nicolson kernel tests: grid/transform, solver equivalence
(bit-exact wavefront), pricing accuracy, Fig. 8 shape."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, ConvergenceError, DomainError
from repro.kernels.binomial import price_basic as binomial_price
from repro.kernels.crank_nicolson import (SOLVERS, adapt_omega, build,
                                          gsor_solve,
                                          gsor_solve_vectorized_rb,
                                          make_grid, price_at_spot, s_grid,
                                          solve, solve_batch,
                                          transformed_payoff, untransform,
                                          wavefront_solve,
                                          wavefront_solve_transformed)
from repro.kernels.crank_nicolson.gsor import RB_CHECK_EVERY
from repro.pricing import (ExerciseStyle, Option, OptionKind, bs_call,
                           bs_put)
from repro.validation import AMERICAN_PUT_ANCHOR


class TestGrid:
    def test_alpha_above_explicit_stability(self, american_put):
        """The paper runs alpha = 0.73 > 1/2 — the whole point of the
        implicit half-step. Default grids land in the same regime."""
        g = make_grid(american_put, 256, 1000)
        assert g.alpha > 0.5

    def test_payoff_at_tau0_is_intrinsic(self, american_put):
        g = make_grid(american_put, 128, 10)
        v = untransform(g, transformed_payoff(g, 0.0), 0.0)
        intrinsic = np.maximum(american_put.strike - s_grid(g), 0.0)
        assert np.allclose(v, intrinsic, atol=1e-9)

    def test_untransform_roundtrip_scaling(self, american_put):
        g = make_grid(american_put, 64, 10)
        u = np.ones(64)
        v0 = untransform(g, u, 0.0)
        v1 = untransform(g, u, g.tau_max)
        assert v0.shape == v1.shape == (64,)
        assert not np.allclose(v0, v1)  # tau enters the transform

    def test_price_at_spot_interpolates(self, american_put):
        g = make_grid(american_put, 128, 10)
        values = s_grid(g)  # V(S) = S is linear -> interp exact-ish
        assert price_at_spot(g, values) == pytest.approx(100.0, rel=1e-4)

    def test_spot_outside_grid_rejected(self):
        o = Option(1e6, 100.0, 1.0, 0.02, 0.3, OptionKind.PUT)
        g = make_grid(Option(100, 100, 1.0, 0.02, 0.3, OptionKind.PUT),
                      64, 10)
        og = g.__class__(**{**g.__dict__, "opt": o})
        with pytest.raises(DomainError):
            price_at_spot(og, np.zeros(64))

    def test_grid_validation(self, american_put):
        with pytest.raises(DomainError):
            make_grid(american_put, 4, 10)
        with pytest.raises(DomainError):
            make_grid(american_put, 64, 0)

    @pytest.mark.parametrize("n_points, n_steps", [
        (64, True), (True, 50), (64.5, 50), (64, 50.0), ("64", 50),
        (64, None)])
    def test_non_integer_sizes_rejected(self, american_put, n_points,
                                        n_steps):
        # True is an int to Python and would price a 1-step lattice.
        with pytest.raises(ConfigurationError):
            make_grid(american_put, n_points, n_steps)

    def test_numpy_integer_sizes_accepted(self, american_put):
        g = make_grid(american_put, np.int64(64), np.int32(50))
        want = make_grid(american_put, 64, 50)
        assert (g.n_points, g.n_steps) == (64, 50)
        assert type(g.n_points) is int and type(g.n_steps) is int
        assert np.array_equal(g.x, want.x) and g.alpha == want.alpha


def _random_system(seed, n=61):
    rng = np.random.default_rng(seed)
    b = rng.uniform(0, 1, n)
    g = rng.uniform(0, 0.8, n)
    u = rng.uniform(0, 1, n)
    return b, g, u


class TestSolverEquivalence:
    @given(st.integers(0, 1000), st.integers(1, 12),
           st.floats(min_value=1.0, max_value=1.8))
    @settings(max_examples=30, deadline=None)
    def test_wavefront_bitwise_equals_gsor(self, seed, width, omega):
        """The Fig. 7 wavefront evaluates the identical dependency DAG:
        results must be bit-for-bit equal to scalar GSOR with the
        convergence check stride matched."""
        b, g, u0 = _random_system(seed)
        u1, u2 = u0.copy(), u0.copy()
        s1 = gsor_solve(b, u1, g, 0.73, omega=omega, tol=1e-12,
                        check_every=width)
        s2 = wavefront_solve(b, u2, g, 0.73, omega=omega, tol=1e-12,
                             width=width)
        assert s1.sweeps == s2.sweeps
        assert np.array_equal(u1, u2)

    @given(st.integers(0, 1000), st.sampled_from([2, 4, 8]))
    @settings(max_examples=30, deadline=None)
    def test_transformed_bitwise_equals_direct(self, seed, width):
        b, g, u0 = _random_system(seed)
        u1, u2 = u0.copy(), u0.copy()
        wavefront_solve(b, u1, g, 0.73, tol=1e-12, width=width)
        wavefront_solve_transformed(b, u2, g, 0.73, tol=1e-12, width=width)
        assert np.array_equal(u1, u2)

    def test_even_and_odd_sizes(self):
        for n in (20, 21, 64, 65):
            b, g, u0 = _random_system(n, n)
            u1, u2 = u0.copy(), u0.copy()
            gsor_solve(b, u1, g, 0.73, tol=1e-12, check_every=8)
            wavefront_solve_transformed(b, u2, g, 0.73, tol=1e-12, width=8)
            assert np.array_equal(u1, u2)

    def test_european_mode_no_obstacle(self):
        b, _, u0 = _random_system(5)
        u1, u2 = u0.copy(), u0.copy()
        gsor_solve(b, u1, None, 0.73, tol=1e-12, check_every=4)
        wavefront_solve(b, u2, None, 0.73, tol=1e-12, width=4)
        assert np.array_equal(u1, u2)

    def test_red_black_same_fixed_point(self):
        """Red-black reorders iterates but converges to the same
        solution of the LCP (within tolerance)."""
        b, g, u0 = _random_system(9)
        u1, u2 = u0.copy(), u0.copy()
        gsor_solve(b, u1, g, 0.73, tol=1e-18, max_sweeps=5000)
        gsor_solve_vectorized_rb(b, u2, g, 0.73, tol=1e-18, max_sweeps=5000)
        assert np.allclose(u1, u2, atol=1e-7)

    def test_solution_satisfies_lcp(self):
        """PSOR solves the linear complementarity problem: u >= g, and
        where u > g the linear equation holds."""
        b, g, u = _random_system(13)
        gsor_solve(b, u, g, 0.73, tol=1e-20, max_sweeps=20_000)
        assert np.all(u[1:-1] >= g[1:-1] - 1e-12)
        resid = (1 + 0.73) * u[1:-1] - 0.365 * (u[:-2] + u[2:]) - b[1:-1]
        free = u[1:-1] > g[1:-1] + 1e-9
        assert np.max(np.abs(resid[free])) < 1e-8

    def test_nonconvergence_raises(self):
        b, g, u = _random_system(1)
        with pytest.raises(ConvergenceError) as exc:
            gsor_solve(b, u, g, 0.73, tol=1e-30, max_sweeps=5)
        assert exc.value.iterations == 5

    def test_omega_adaptation(self):
        assert adapt_omega(1.0, sweeps=10, prev_sweeps=5) == pytest.approx(1.05)
        assert adapt_omega(1.0, sweeps=5, prev_sweeps=10) == 1.0
        assert adapt_omega(1.94, sweeps=10, prev_sweeps=5) == 1.94  # capped

    def test_check_stride_overshoots_by_less_than_a_stride(self):
        """Checking convergence every W sweeps can only overshoot by
        fewer than W sweeps — the cost Sec. IV-E2 accepts for
        vectorizability."""
        b, g, u0 = _random_system(3, 129)
        s1 = gsor_solve(b, u0.copy(), g, 0.73, tol=1e-12, check_every=1)
        s8 = gsor_solve(b, u0.copy(), g, 0.73, tol=1e-12, check_every=8)
        assert s1.sweeps <= s8.sweeps < s1.sweeps + 8

    def test_red_black_residual_is_the_last_sweeps_own(self):
        """At a ``max_sweeps`` off the test stride, the forced test
        reports the update of sweep ``max_sweeps`` itself: the same as
        one more sweep from where ``max_sweeps - 1`` sweeps left u."""
        b, g, u0 = _random_system(4)
        m = RB_CHECK_EVERY + 1
        with pytest.raises(ConvergenceError) as whole:
            gsor_solve_vectorized_rb(b, u0.copy(), g, 0.73, tol=0.0,
                                     max_sweeps=m)
        u = u0.copy()
        with pytest.raises(ConvergenceError):
            gsor_solve_vectorized_rb(b, u, g, 0.73, tol=0.0,
                                     max_sweeps=m - 1)
        with pytest.raises(ConvergenceError) as last:
            gsor_solve_vectorized_rb(b, u, g, 0.73, tol=0.0, max_sweeps=1)
        assert whole.value.iterations == m
        assert whole.value.residual == last.value.residual > 0.0

    def test_check_every_validation(self):
        b, g, u = _random_system(2)
        with pytest.raises(ValueError):
            gsor_solve(b, u, g, 0.73, check_every=0)


#: Arguments no PSOR solve can honour: ω = 0 never moves an iterate, ω
#: outside (0, 2) or a NaN ω or tol can only run out of sweeps, and with
#: no sweep there is no residual to report.
BAD_SOLVER_ARGS = [
    {"omega": 0.0}, {"omega": -0.5}, {"omega": 2.0},
    {"omega": float("nan")}, {"tol": float("nan")}, {"tol": float("inf")},
    {"tol": -1e-9}, {"max_sweeps": 0}, {"max_sweeps": -3},
    {"max_sweeps": True}, {"max_sweeps": 2.5},
]


class TestSolverArguments:
    @pytest.mark.parametrize("bad", BAD_SOLVER_ARGS, ids=str)
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_every_solver_rejects(self, solver, bad):
        b, g, u = _random_system(6)
        before = u.copy()
        with pytest.raises(ConfigurationError):
            SOLVERS[solver](b, u, g, 0.73, **bad)
        assert np.array_equal(u, before)

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_omega_zero_does_not_price(self, solver, american_put):
        # Unchecked, ω = 0 prices the payoff march: 0.943, not 9.880.
        with pytest.raises(ConfigurationError):
            solve(american_put, 64, 50, solver, omega=0.0)

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_numpy_integer_max_sweeps_accepted(self, solver):
        b, g, u0 = _random_system(6)
        u1, u2 = u0.copy(), u0.copy()
        s1 = SOLVERS[solver](b, u1, g, 0.73, max_sweeps=np.int64(5000))
        s2 = SOLVERS[solver](b, u2, g, 0.73, max_sweeps=5000)
        assert s1.sweeps == s2.sweeps
        assert np.array_equal(u1, u2)


class TestPricing:
    def test_european_put_matches_black_scholes(self):
        o = Option(100, 100, 1.0, 0.05, 0.3, OptionKind.PUT)
        r = solve(o, n_points=192, n_steps=300)
        exact = float(bs_put(100, 100, 1.0, 0.05, 0.3))
        assert r.price == pytest.approx(exact, abs=0.02)

    def test_european_call_matches_black_scholes(self):
        o = Option(100, 110, 1.0, 0.05, 0.3, OptionKind.CALL)
        r = solve(o, n_points=192, n_steps=300)
        exact = float(bs_call(100, 110, 1.0, 0.05, 0.3))
        assert r.price == pytest.approx(exact, abs=0.03)

    def test_american_put_matches_binomial_anchor(self, american_put):
        r = solve(american_put, n_points=192, n_steps=300)
        assert r.price == pytest.approx(AMERICAN_PUT_ANCHOR, abs=0.03)

    def test_american_premium_positive(self):
        am = Option(100, 110, 1.0, 0.05, 0.3, OptionKind.PUT,
                    ExerciseStyle.AMERICAN)
        eu = Option(100, 110, 1.0, 0.05, 0.3, OptionKind.PUT)
        ram = solve(am, n_points=160, n_steps=200)
        reu = solve(eu, n_points=160, n_steps=200)
        assert ram.price > reu.price

    def test_american_value_dominates_intrinsic_everywhere(self,
                                                           american_put):
        r = solve(american_put, n_points=160, n_steps=200)
        intrinsic = np.maximum(american_put.strike - s_grid(r.grid), 0.0)
        assert np.all(r.values >= intrinsic - 1e-6)

    def test_exercise_region_exists_at_inception(self, american_put):
        """At t=0 the American put meets intrinsic on a contact set whose
        top, the early-exercise boundary S*, lies below the strike; the
        European put of the same contract never touches intrinsic."""
        def contact(opt):
            r = solve(opt, n_points=192, n_steps=120)
            s = s_grid(r.grid)
            intrinsic = np.maximum(opt.strike - s, 0.0)
            return s[np.isclose(r.values, intrinsic, atol=1e-6)
                     & (intrinsic > 0)]

        exercised = contact(american_put)
        assert exercised.size > 0
        assert 40.0 < exercised.max() < 95.0
        european = Option(100, 100, 1.0, 0.05, 0.3, OptionKind.PUT)
        assert contact(european).size == 0

    @pytest.mark.parametrize("solver", ["wavefront",
                                        "wavefront_transformed",
                                        "red_black"])
    def test_all_solvers_price_identically(self, solver, american_put):
        base = solve(american_put, n_points=96, n_steps=60, solver="gsor",
                     check_every=8)
        other = solve(american_put, n_points=96, n_steps=60, solver=solver,
                      **({"width": 8} if "wavefront" in solver else {}))
        # Wavefront variants replay the identical iterate sequence;
        # red-black is a different iteration to the same fixed point, so
        # the per-step solves differ at the convergence tolerance and
        # accumulate over the 60 steps.
        tol = 1e-12 if "wavefront" in solver else 1e-4
        assert other.price == pytest.approx(base.price, abs=tol)

    def test_unknown_solver(self, american_put):
        with pytest.raises(ConfigurationError):
            solve(american_put, solver="multigrid")

    def test_solve_batch(self):
        opts = [Option(100, k, 1.0, 0.05, 0.3, OptionKind.PUT,
                       ExerciseStyle.AMERICAN) for k in (95.0, 105.0)]
        prices = solve_batch(opts, n_points=96, n_steps=60)
        assert prices.shape == (2,)
        assert prices[1] > prices[0]  # higher strike put worth more

    def test_omega_adapts_during_run(self, american_put):
        r = solve(american_put, n_points=96, n_steps=100)
        assert r.final_omega >= 1.0
        assert r.total_sweeps >= 100  # at least one sweep per step


class TestFig8Shape:
    @pytest.fixture(scope="class")
    def km(self):
        return build()

    def test_reference_roughly_equal_chips(self, km):
        ratio = (km.reference("KNC").throughput
                 / km.reference("SNB-EP").throughput)
        assert 0.8 < ratio < 1.6  # paper: 1.3x

    def test_wavefront_simd_improves_both(self, km):
        label = "Advanced (Manual SIMD for implicit step)"
        for arch in ("SNB-EP", "KNC"):
            assert (km.perf(label, arch).throughput
                    > 1.5 * km.reference(arch).throughput)

    def test_data_transform_improves_further(self, km):
        mid = "Advanced (Manual SIMD for implicit step)"
        top = "Advanced (Data structure transform for SIMD)"
        for arch in ("SNB-EP", "KNC"):
            assert (km.perf(top, arch).throughput
                    > 1.3 * km.perf(mid, arch).throughput)

    def test_net_simd_gain_below_width(self, km):
        """Paper: 3.1x of 4 on SNB-EP, 4.1x of 8 on KNC — the gain must
        be substantial but below the SIMD width."""
        snb = km.ninja_gap("SNB-EP")
        knc = km.ninja_gap("KNC")
        assert 2.0 < snb <= 5.0
        assert 3.0 < knc <= 8.0
        assert knc > snb

    def test_absolute_rates_within_2x_of_paper(self, km):
        paper = {
            ("Basic (Reference)", "SNB-EP"): 2100,
            ("Basic (Reference)", "KNC"): 2700,
            ("Advanced (Manual SIMD for implicit step)", "SNB-EP"): 4400,
            ("Advanced (Manual SIMD for implicit step)", "KNC"): 7300,
            ("Advanced (Data structure transform for SIMD)", "SNB-EP"): 6400,
            ("Advanced (Data structure transform for SIMD)", "KNC"): 11400,
        }
        for (label, arch), value in paper.items():
            ours = km.perf(label, arch).throughput
            assert 0.5 < ours / value < 2.0, (label, arch, ours)

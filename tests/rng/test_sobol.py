"""Sobol sequence tests: primitivity search, known values, discrepancy."""

import numpy as np
import pytest
from scipy.stats import qmc

from repro.errors import ConfigurationError
from repro.rng import (Sobol, direction_numbers, is_primitive,
                       primitive_polynomials)


class TestPrimitivePolynomials:
    def test_known_primitives(self):
        assert is_primitive(0b11, 1)        # x + 1
        assert is_primitive(0b111, 2)       # x^2 + x + 1
        assert is_primitive(0b1011, 3)      # x^3 + x + 1
        assert is_primitive(0b1101, 3)      # x^3 + x^2 + 1
        assert is_primitive(0b10011, 4)     # x^4 + x + 1

    def test_known_non_primitives(self):
        assert not is_primitive(0b1111, 3)      # (x+1)(x^2+x+1)
        assert not is_primitive(0b11111, 4)     # irreducible, order 5
        assert not is_primitive(0b1001, 3)      # x^3+1 = (x+1)(x^2+x+1)

    def test_counts_per_degree(self):
        """phi(2^d - 1)/d primitive polynomials of degree d."""
        polys = primitive_polynomials(200)
        per_degree = {}
        for d, _ in polys:
            per_degree[d] = per_degree.get(d, 0) + 1
        assert per_degree[1] == 1
        assert per_degree[2] == 1
        assert per_degree[3] == 2
        assert per_degree[4] == 2
        assert per_degree[5] == 6
        assert per_degree[6] == 6
        assert per_degree[7] == 18

    def test_ascending_degrees(self):
        polys = primitive_polynomials(50)
        degrees = [d for d, _ in polys]
        assert degrees == sorted(degrees)


class TestDirectionNumbers:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            direction_numbers(2, 1, 0b11, m_init=[2])   # even
        with pytest.raises(ConfigurationError):
            direction_numbers(3, 2, 0b111, m_init=[1, 5])  # 5 >= 2^2
        with pytest.raises(ConfigurationError):
            direction_numbers(3, 2, 0b111, m_init=[1])  # wrong count

    def test_high_bit_always_set(self):
        v = direction_numbers(2, 1, 0b11)
        assert all(int(x) >> 31 & 1 or i > 0 for i, x in enumerate(v))
        assert int(v[0]) >> 31 == 1


class TestSequenceValues:
    def test_dim1_is_van_der_corput(self):
        pts = Sobol(1).points(7).ravel()
        assert np.allclose(pts,
                           [0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125])

    def test_matches_scipy_first_dims(self):
        ours = Sobol(3).points(32)
        sp = qmc.Sobol(d=3, scramble=False)
        sp.fast_forward(1)
        theirs = sp.random(32)
        assert np.allclose(ours, theirs)

    def test_skip(self):
        a = Sobol(2).points(10)
        b = Sobol(2, skip=4).points(6)
        assert np.allclose(a[4:], b)

    def test_deterministic(self):
        assert np.array_equal(Sobol(5).points(100), Sobol(5).points(100))

    def test_range(self):
        p = Sobol(8).points(1000)
        assert p.min() >= 0.0 and p.max() < 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Sobol(0)
        with pytest.raises(ConfigurationError):
            Sobol(2).points(-1)
        with pytest.raises(ConfigurationError):
            Sobol(3).uniform53(10)  # not a multiple of dim


class TestEquidistribution:
    def test_strata_balanced_every_dim(self):
        """With n = 2^k points, each dyadic stratum holds exactly n/8."""
        n = 1024
        p = Sobol(6, skip=0).points(n)
        # use the aligned block [1, 1024]: counts per 1/8-stratum differ
        # by at most 1 for a (t,m,s)-net-like sequence
        for d in range(6):
            counts, _ = np.histogram(p[:, d], bins=8, range=(0, 1))
            assert counts.max() - counts.min() <= 2, (d, counts)

    def test_2d_boxes_balanced(self):
        p = Sobol(2).points(4096)
        h, _, _ = np.histogram2d(p[:, 0], p[:, 1], bins=8,
                                 range=[[0, 1], [0, 1]])
        assert h.max() - h.min() <= 4


class TestLowDiscrepancy:
    def test_qmc_beats_mc_on_smooth_integrand(self):
        """Integration error orders of magnitude below pseudo-random at
        the same budget (the property QMC exists for)."""
        def f(u):
            return np.prod(1.0 + 0.5 * (u - 0.5), axis=1)  # mean 1

        dims, n = 5, 8192
        q_err = abs(f(Sobol(dims).points(n)).mean() - 1.0)
        rng = np.random.default_rng(0)
        mc_errs = [abs(f(rng.uniform(0, 1, (n, dims))).mean() - 1.0)
                   for _ in range(5)]
        assert q_err < np.mean(mc_errs) / 3

    def test_qmc_error_decays_faster(self):
        def f(u):
            return np.prod(1.0 + (u - 0.5), axis=1)

        errs = []
        for n in (1024, 16384):
            errs.append(abs(f(Sobol(4).points(n)).mean() - 1.0))
        # Over a 16x budget increase, MC gains 4x; Sobol should gain
        # clearly more on a smooth product integrand.
        assert errs[1] < errs[0] / 6


class TestScrambling:
    def test_shift_changes_points_preserves_range(self):
        a = Sobol(3, scramble=True, seed=1).points(100)
        b = Sobol(3, scramble=True, seed=2).points(100)
        plain = Sobol(3).points(100)
        assert not np.allclose(a, plain)
        assert not np.allclose(a, b)
        assert a.min() >= 0 and a.max() < 1

    def test_scrambled_replications_estimate_error(self):
        def f(u):
            return np.prod(1.0 + 0.5 * (u - 0.5), axis=1)

        reps = [f(Sobol(4, scramble=True, seed=s).points(2048)).mean()
                for s in range(8)]
        assert np.mean(reps) == pytest.approx(1.0, abs=0.005)


class TestBridgeIntegration:
    def test_sobol_drives_bridge_pricing(self):
        """Sobol + ICDF + Brownian bridge: the Glasserman pipeline. QMC
        pricing error must beat MC at equal budget."""
        from repro.kernels.brownian import build_vectorized, make_schedule
        from repro.pricing import bs_call
        from repro.rng import MT19937, NormalGenerator, icdf_transform

        sch = make_schedule(4)  # 16 steps
        S0, K, T, r, sig = 100.0, 100.0, 1.0, 0.02, 0.3
        exact = float(bs_call(S0, K, T, r, sig))
        n = 4096

        def price(paths):
            st = S0 * np.exp((r - 0.5 * sig ** 2) * T + sig * paths[-1])
            return float(np.exp(-r * T)
                         * np.maximum(st - K, 0.0).mean())

        u = Sobol(sch.randoms_per_path()).points(n)
        z_q = icdf_transform(u).reshape(-1)
        qmc_paths = build_vectorized(sch, z_q)
        q_err = abs(price(qmc_paths) - exact)

        z_m = NormalGenerator(MT19937(3)).normals(
            n * sch.randoms_per_path())
        mc_paths = build_vectorized(sch, z_m)
        m_err = abs(price(mc_paths) - exact)
        assert q_err < m_err
        assert q_err < 0.05  # kinked payoff caps the QMC rate

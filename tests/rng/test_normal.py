"""Normal-transform tests: Box-Muller, ICDF, generator wrapper."""

import numpy as np
import pytest
from scipy import special, stats

from repro.errors import ConfigurationError
from repro.rng import (MT19937, NormalGenerator, Philox, box_muller,
                       icdf_transform)


class TestBoxMuller:
    def test_moments(self, rng_np):
        u1 = rng_np.uniform(0, 1, 250_000)
        u2 = rng_np.uniform(0, 1, 250_000)
        z0, z1 = box_muller(u1, u2)
        for z in (z0, z1):
            assert abs(z.mean()) < 0.01
            assert abs(z.std() - 1.0) < 0.01

    def test_pair_independence(self, rng_np):
        u1 = rng_np.uniform(0, 1, 100_000)
        u2 = rng_np.uniform(0, 1, 100_000)
        z0, z1 = box_muller(u1, u2)
        assert abs(np.corrcoef(z0, z1)[0, 1]) < 0.01

    def test_zero_u1_handled(self):
        z0, z1 = box_muller(np.array([0.0]), np.array([0.5]))
        assert np.isfinite(z0[0]) and np.isfinite(z1[0])

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            box_muller(np.zeros(3), np.zeros(4))

    def test_normality_ks(self, rng_np):
        u1 = rng_np.uniform(0, 1, 50_000)
        u2 = rng_np.uniform(0, 1, 50_000)
        z0, _ = box_muller(u1, u2)
        _, p = stats.kstest(z0, "norm")
        assert p > 1e-4  # must not be grossly non-normal


class TestICDF:
    def test_moments(self, rng_np):
        z = icdf_transform(rng_np.uniform(0, 1, 250_000))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_exact_path_matches_scipy(self, rng_np):
        # Both clipping endpoints included: 0 maps to ndtri(tiny), and
        # 1 - 2**-53 is the largest double below 1, kept as is.
        u = np.concatenate([rng_np.uniform(1e-6, 1 - 1e-6, 10_000),
                            [0.0, 1.0 - 2.0 ** -53]])
        want = special.ndtri(np.clip(u, np.finfo(float).tiny,
                                     1.0 - 2.0 ** -53))
        assert np.allclose(icdf_transform(u), want, atol=1e-9)

    def test_monotone_in_u(self):
        u = np.linspace(0.01, 0.99, 1001)
        assert np.all(np.diff(icdf_transform(u)) > 0)

    def test_endpoint_clipping(self):
        z = icdf_transform(np.array([0.0, 1.0]))
        assert np.all(np.isfinite(z))


class TestNormalGenerator:
    @pytest.mark.parametrize("method", ["box_muller", "icdf"])
    def test_moments_and_kurtosis(self, method):
        ng = NormalGenerator(MT19937(42), method)
        z = ng.normals(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        kurt = ((z - z.mean()) ** 4).mean() / z.var() ** 2
        assert abs(kurt - 3.0) < 0.1

    def test_spare_caching_consistency(self):
        """Odd-sized draws must concatenate to the same stream as one
        bulk draw (the Box-Muller spare half is cached)."""
        bulk = NormalGenerator(MT19937(5)).normals(101)
        g = NormalGenerator(MT19937(5))
        parts = np.concatenate([g.normals(33), g.normals(1), g.normals(67)])
        assert np.array_equal(bulk, parts)

    def test_icdf_one_draw_per_normal(self):
        """ICDF keeps the 1:1 uniform->normal correspondence that the
        Brownian bridge consumption order relies on."""
        g1 = NormalGenerator(MT19937(9), "icdf")
        z = g1.normals(100)
        u = MT19937(9).uniform53(100)
        assert np.allclose(z, icdf_transform(u))

    def test_works_with_philox(self):
        z = NormalGenerator(Philox(key=1)).normals(50_000)
        assert abs(z.mean()) < 0.02

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            NormalGenerator(MT19937(1), "ziggurat")

    def test_negative_count(self):
        with pytest.raises(ConfigurationError):
            NormalGenerator(MT19937(1)).normals(-1)

    def test_zero_count(self):
        assert NormalGenerator(MT19937(1)).normals(0).size == 0

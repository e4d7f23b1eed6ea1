"""MT2203-style family tests: structure, statistics, independence."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.plan.audit import audit_allocations
from repro.rng import MAX_STREAMS, MT2203, family, stream_parameters


class TestParameters:
    def test_family_size_limit(self):
        with pytest.raises(ConfigurationError):
            stream_parameters(MAX_STREAMS)
        with pytest.raises(ConfigurationError):
            stream_parameters(-1)

    def test_recurrence_top_bit_set(self):
        for sid in range(0, 200, 7):
            assert stream_parameters(sid)["a"] & 0x80000000

    def test_parameters_distinct_across_streams(self):
        seen = {int(stream_parameters(s)["a"]) for s in range(512)}
        assert len(seen) > 500  # essentially all distinct

    def test_state_size(self):
        assert MT2203.state_size == 69  # n = ceil(2203/32)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = MT2203(0, 1).raw(500)
        b = MT2203(0, 1).raw(500)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(MT2203(0, 1).raw(100),
                                  MT2203(0, 2).raw(100))

    def test_different_streams_differ(self):
        assert not np.array_equal(MT2203(0, 1).raw(100),
                                  MT2203(1, 1).raw(100))

    def test_chunked_draws_match_bulk(self):
        g1 = MT2203(3, 9)
        g2 = MT2203(3, 9)
        bulk = g1.raw(500)
        chunks = np.concatenate([g2.raw(68), g2.raw(1), g2.raw(431)])
        assert np.array_equal(bulk, chunks)

    def test_negative_count(self):
        with pytest.raises(ConfigurationError):
            MT2203(0, 1).raw(-5)


class TestStatistics:
    def test_uniform_moments(self):
        u = MT2203(0, 1).uniform53(200_000)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.002

    def test_chi_square_uniformity(self):
        """Chi-square over 100 bins must not reject at ~5 sigma."""
        u = MT2203(1, 1).uniform53(100_000)
        counts, _ = np.histogram(u, bins=100, range=(0, 1))
        expected = 1000.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # dof = 99: mean 99, std ~14; require chi2 < 99 + 5*14
        assert chi2 < 170

    def test_bit_balance(self):
        r = MT2203(2, 7).raw(100_000)
        for bit in range(0, 32, 3):
            frac = ((r >> np.uint32(bit)) & 1).mean()
            assert 0.48 < frac < 0.52

    def test_uniform32_range(self):
        u = MT2203(5, 3).uniform32(50_000)
        assert u.min() >= 0.0 and u.max() < 1.0


class TestIndependence:
    def test_cross_stream_correlation_negligible(self):
        n = 100_000
        base = MT2203(0, 1).uniform53(n)
        for sid in (1, 7, 100, 2000):
            other = MT2203(sid, 1).uniform53(n)
            corr = np.corrcoef(base, other)[0, 1]
            assert abs(corr) < 0.01, f"stream {sid} correlates: {corr}"

    def test_lagged_cross_correlation(self):
        n = 50_000
        a = MT2203(0, 1).uniform53(n)
        b = MT2203(1, 1).uniform53(n)
        for lag in (1, 10, 100):
            corr = np.corrcoef(a[:-lag], b[lag:])[0, 1]
            assert abs(corr) < 0.02


class TestFamily:
    def test_family_builder(self):
        fam = family(8, seed=5)
        assert len(fam) == 8
        assert fam[0].stream_id == 0 and fam[7].stream_id == 7

    def test_family_bounds(self):
        with pytest.raises(ConfigurationError):
            family(0)
        with pytest.raises(ConfigurationError):
            family(MAX_STREAMS + 1)


def _res53_of_raw(gen, n):
    """``genrand_res53`` written out on ``2n`` raw draws: the
    stride-2 float fold ``(a·2^26 + b)·2^-53`` of the C reference."""
    r = gen.raw(2 * n).astype(np.uint64)
    a, b = r[0::2] >> np.uint64(5), r[1::2] >> np.uint64(6)
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)


class TestOneFold:
    """``MT2203.uniform53`` runs the shared ``fold53`` on its raw words."""

    @pytest.mark.parametrize("member", [0, 1, 7])
    @pytest.mark.parametrize("seed", [1, 5489, 2012])
    def test_bit_identical_to_the_float_fold(self, member, seed):
        gen, twin = MT2203(member, seed), MT2203(member, seed)
        for split in ([0], [1], [311, 1, 313], [312], [1000, 7, 1877],
                      [327_680]):
            for k in split:
                assert np.array_equal(gen.uniform53(k),
                                      _res53_of_raw(twin, k))
                assert np.array_equal(gen.raw(3), twin.raw(3))
        assert np.array_equal(gen._mt, twin._mt)
        assert gen._mti == twin._mti

    def test_uniform53_peak_is_its_buffer_and_fold_scratch(self):
        n = 327_680
        audit = audit_allocations(lambda: MT2203(1, 5).uniform53(n))
        assert audit.peak_bytes <= 3 * 8 * n + 64 * 1024

    def test_raw_into_fills_the_raw_stream(self):
        gen, twin = MT2203(7, 3), MT2203(7, 3)
        out = np.empty(1000, dtype=np.uint32)
        gen.raw_into(out[:400])
        gen.raw_into(out[400:])
        assert np.array_equal(out, twin.raw(1000))

"""Black-Scholes kernel tests: tier agreement, layouts, model shape."""

import numpy as np
import pytest

from repro.arch import KNC, SNB_EP
from repro.errors import ConfigurationError, LayoutError
from repro.kernels.black_scholes import (BYTES_PER_OPTION, advanced_trace,
                                         bandwidth_bound, build,
                                         price_advanced, price_basic,
                                         price_intermediate,
                                         price_reference, reference_trace,
                                         soa_trace)
from repro.pricing import bs_call, bs_put, random_batch


@pytest.fixture(scope="module")
def expected():
    b = random_batch(400, seed=17)
    return (bs_call(b.S, b.X, b.T, b.rate, b.vol),
            bs_put(b.S, b.X, b.T, b.rate, b.vol))


class TestFunctionalTiers:
    def test_reference_matches_analytic(self, expected):
        b = random_batch(400, seed=17, layout="aos")
        price_reference(b)
        assert np.allclose(b.call, expected[0], atol=1e-10)
        assert np.allclose(b.put, expected[1], atol=1e-10)

    def test_basic_matches(self, expected):
        b = random_batch(400, seed=17, layout="aos")
        price_basic(b)
        assert np.allclose(b.call, expected[0], atol=1e-10)
        assert np.allclose(b.put, expected[1], atol=1e-10)

    @pytest.mark.parametrize("layout", ["aos", "soa"])
    def test_intermediate_matches(self, layout, expected):
        b = random_batch(400, seed=17, layout=layout)
        price_intermediate(b)
        assert np.allclose(b.call, expected[0], atol=1e-10)
        assert np.allclose(b.put, expected[1], atol=1e-10)

    @pytest.mark.parametrize("layout", ["aos", "soa"])
    def test_advanced_matches(self, layout, expected):
        b = random_batch(400, seed=17, layout=layout)
        price_advanced(b)
        assert np.allclose(b.call, expected[0], atol=1e-9)
        assert np.allclose(b.put, expected[1], atol=1e-9)

    def test_advanced_blocking_invariant(self, expected):
        for block in (7, 64, 1000):
            b = random_batch(400, seed=17)
            price_advanced(b, block=block)
            assert np.allclose(b.call, expected[0], atol=1e-9)

    @pytest.mark.parametrize("block", [-1, 0])
    def test_advanced_rejects_nonpositive_block(self, block):
        b = random_batch(16, seed=17)
        with pytest.raises(ConfigurationError):
            price_advanced(b, block=block)

    def test_reference_requires_aos(self):
        b = random_batch(8, layout="soa")
        with pytest.raises(LayoutError):
            price_reference(b)
        with pytest.raises(LayoutError):
            price_basic(b)

    def test_parity_holds_in_outputs(self):
        b = random_batch(200, seed=5)
        price_advanced(b)
        resid = b.call - b.put - (b.S - b.X * np.exp(-b.rate * b.T))
        assert np.max(np.abs(resid)) < 1e-9


class TestTraces:
    def test_reference_knc_is_scalar(self):
        t = reference_trace(KNC, 1024)
        assert t.width == 1

    def test_reference_snb_gathers(self):
        t = reference_trace(SNB_EP, 1024)
        assert t.width == 4
        assert t.gathers > 0 and t.scatters > 0

    def test_soa_has_no_gathers(self):
        for arch in (SNB_EP, KNC):
            t = soa_trace(arch, 1024)
            assert t.gathers == 0 and t.scatters == 0

    def test_advanced_halves_cdf_work(self):
        soa = soa_trace(SNB_EP, 1024)
        adv = advanced_trace(SNB_EP, 1024)
        # 4 cnd -> 2 erf per option
        assert soa.transcendentals["cnd"] == 4 * 1024
        assert adv.transcendentals["erf"] == 2 * 1024
        assert "cnd" not in adv.transcendentals

    def test_vml_on_knc_adds_traffic(self):
        plain = advanced_trace(KNC, 1024, vml=False)
        vml = advanced_trace(KNC, 1024, vml=True)
        assert vml.dram_bytes > plain.dram_bytes

    def test_vml_on_snb_adds_no_traffic(self):
        plain = advanced_trace(SNB_EP, 1024, vml=False)
        vml = advanced_trace(SNB_EP, 1024, vml=True)
        assert vml.dram_bytes == plain.dram_bytes

    def test_dram_per_option_is_40_bytes(self):
        t = soa_trace(SNB_EP, 1024)
        assert t.dram_bytes / t.items == BYTES_PER_OPTION


class TestFig4Shape:
    @pytest.fixture(scope="class")
    def km(self):
        return build()

    def test_knc_reference_about_3x_slower(self, km):
        ratio = (km.reference("SNB-EP").throughput
                 / km.reference("KNC").throughput)
        assert 2.0 < ratio < 4.5

    def test_soa_transform_large_gain_on_knc(self, km):
        gain = (km.perf("Intermediate (AOS to SOA conversion)",
                        "KNC").throughput
                / km.reference("KNC").throughput)
        assert gain > 4.0

    def test_soa_gain_modest_on_snb(self, km):
        gain = (km.perf("Intermediate (AOS to SOA conversion)",
                        "SNB-EP").throughput
                / km.reference("SNB-EP").throughput)
        assert gain < 2.0

    def test_snb_best_near_bandwidth_bound(self, km):
        frac = km.best("SNB-EP").throughput / bandwidth_bound(SNB_EP)
        assert 0.75 < frac <= 1.0 + 1e-9

    def test_knc_more_compute_bound(self, km):
        frac = km.best("KNC").throughput / bandwidth_bound(KNC)
        assert 0.4 < frac < 0.8

    def test_vml_helps_snb_not_knc(self, km):
        svml_label = "Advanced (erf+parity, SVML)"
        vml_label = "Advanced (Using VML)"
        assert (km.perf(vml_label, "SNB-EP").throughput
                >= km.perf(svml_label, "SNB-EP").throughput)
        assert (km.perf(vml_label, "KNC").throughput
                < km.perf(svml_label, "KNC").throughput)

    def test_bandwidth_bounds_match_paper(self):
        assert bandwidth_bound(SNB_EP) == pytest.approx(1.9e9)
        assert bandwidth_bound(KNC) == pytest.approx(3.75e9)

    def test_no_tier_exceeds_bound(self, km):
        for arch in (SNB_EP, KNC):
            for tp in km.ladder(arch.name):
                assert tp.throughput <= bandwidth_bound(arch) * 1.001

"""Architecture specification tests (Table I)."""

import pytest

from repro.arch import (KNC, PLATFORMS, SNB_EP, ArchSpec, CacheSpec,
                        platform_by_name)
from repro.errors import ConfigurationError


class TestTable1Presets:
    def test_snb_topology(self):
        assert SNB_EP.sockets == 2
        assert SNB_EP.cores_per_socket == 8
        assert SNB_EP.smt == 2
        assert SNB_EP.total_cores == 16

    def test_knc_topology(self):
        assert KNC.sockets == 1
        assert KNC.cores_per_socket == 60
        assert KNC.smt == 4

    def test_clocks(self):
        assert SNB_EP.clock_ghz == 2.7
        assert KNC.clock_ghz == 1.09

    def test_simd_widths(self):
        assert SNB_EP.simd_width_dp == 4    # AVX
        assert KNC.simd_width_dp == 8       # 512-bit

    def test_issue_models(self):
        assert SNB_EP.out_of_order and not KNC.out_of_order
        assert KNC.fma and not SNB_EP.fma
        assert SNB_EP.mul_add_ports and not KNC.mul_add_ports

    def test_peak_dp_flops_match_table1(self):
        SNB_EP.validate_against_table1()
        KNC.validate_against_table1()

    def test_peak_derivation_snb(self):
        # 16 cores x 2.7 GHz x (4-wide mul + 4-wide add)
        assert SNB_EP.peak_dp_gflops == pytest.approx(345.6)

    def test_peak_derivation_knc(self):
        # 60 cores x 1.09 GHz x 8-wide FMA
        assert KNC.peak_dp_gflops == pytest.approx(1046.4)

    def test_sp_peak_is_double_dp(self):
        for a in PLATFORMS:
            assert a.peak_sp_gflops == pytest.approx(2 * a.peak_dp_gflops)

    def test_bandwidths(self):
        assert SNB_EP.stream_bw_gbs == 76.0
        assert KNC.stream_bw_gbs == 150.0

    def test_knc_compute_advantage(self):
        # The paper: KNC is 3.2x in peak compute (60/16 * 512/256 * 1.09/2.7).
        ratio = KNC.peak_dp_gflops / SNB_EP.peak_dp_gflops
        assert 2.9 < ratio < 3.2

    def test_cache_sizes(self):
        assert SNB_EP.cache("L1").size == 32 * 1024
        assert SNB_EP.cache("L2").size == 256 * 1024
        assert SNB_EP.cache("L3").size == 20 * 1024 * 1024
        assert SNB_EP.cache("L3").shared
        assert KNC.cache("L2").size == 512 * 1024
        assert not KNC.cache("L2").shared

    def test_llc(self):
        assert SNB_EP.llc.name == "L3"
        assert KNC.llc.name == "L2"

    def test_llc_capacity_per_core(self):
        assert SNB_EP.llc_capacity_per_core == 20 * 1024 * 1024 // 16
        assert KNC.llc_capacity_per_core == 512 * 1024

    def test_vector_registers(self):
        assert SNB_EP.vector_registers == 16   # ymm0-15
        assert KNC.vector_registers == 32      # zmm0-31

    def test_describe_mentions_key_facts(self):
        d = SNB_EP.describe()
        assert "2x8x2" in d and "2.70 GHz" in d and "76" in d
        assert "+FMA" in KNC.describe()


class TestLookups:
    def test_platform_by_name(self):
        assert platform_by_name("snb-ep") is SNB_EP
        assert platform_by_name("KNC") is KNC

    def test_unknown_platform(self):
        with pytest.raises(ConfigurationError, match="unknown platform"):
            platform_by_name("haswell")

    def test_unknown_cache_level(self):
        with pytest.raises(ConfigurationError, match="no cache level"):
            KNC.cache("L3")


class TestValidation:
    def _spec(self, **over):
        base = dict(
            name="X", codename="x", sockets=1, cores_per_socket=4, smt=1,
            clock_ghz=2.0, simd_width_dp=4, fma=True, mul_add_ports=False,
            out_of_order=True, caches=(CacheSpec("L1", 32 * 1024),),
            dram_gb=16.0, stream_bw_gbs=50.0, table1_dp_gflops=64.0,
            table1_sp_gflops=128.0,
        )
        base.update(over)
        return ArchSpec(**base)

    def test_valid_custom_spec(self):
        spec = self._spec()
        assert spec.peak_dp_gflops == pytest.approx(64.0)
        spec.validate_against_table1()

    def test_bad_topology(self):
        with pytest.raises(ConfigurationError):
            self._spec(sockets=0)

    def test_bad_clock(self):
        with pytest.raises(ConfigurationError):
            self._spec(clock_ghz=-1.0)

    def test_bad_simd_width(self):
        with pytest.raises(ConfigurationError):
            self._spec(simd_width_dp=3)

    def test_fma_and_ports_exclusive(self):
        with pytest.raises(ConfigurationError):
            self._spec(fma=True, mul_add_ports=True)

    def test_no_caches(self):
        with pytest.raises(ConfigurationError):
            self._spec(caches=())

    def test_table1_mismatch_detected(self):
        spec = self._spec(table1_dp_gflops=100.0)
        with pytest.raises(ConfigurationError, match="differs"):
            spec.validate_against_table1()

    def test_gather_max_lines_defaults_to_width(self):
        assert self._spec().gather_max_lines == 4


class TestCacheSpec:
    def test_n_sets(self):
        c = CacheSpec("L1", 32 * 1024, line_size=64, associativity=8)
        assert c.n_sets == 64

    def test_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            CacheSpec("L1", 1000, line_size=64, associativity=7)

    def test_negative_size(self):
        with pytest.raises(ConfigurationError):
            CacheSpec("L1", -1)

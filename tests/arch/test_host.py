"""Host-calibration tests (light: micro-benchmarks are noisy)."""

import pytest

from repro.arch import (calibrate_host, host_facts, machine_fingerprint,
                        measure_flops, measure_stream_bandwidth,
                        ridge_intensity, roofline, black_scholes_resource)
from repro.errors import ConfigurationError


class TestMeasurements:
    def test_bandwidth_positive_and_sane(self):
        bw = measure_stream_bandwidth(nbytes=8 * 1024 * 1024, repeats=2)
        assert 0.1 < bw < 10_000  # GB/s

    def test_flops_positive_and_sane(self):
        gf = measure_flops(repeats=2)
        assert 0.01 < gf < 10_000

    def test_tiny_measurement_rejected(self):
        with pytest.raises(ConfigurationError):
            measure_stream_bandwidth(nbytes=100)


class TestCalibratedSpec:
    @pytest.fixture(scope="class")
    def host(self):
        return calibrate_host()

    def test_spec_is_self_consistent(self, host):
        host.validate_against_table1()

    def test_usable_in_roofline(self, host):
        rb = roofline(host, black_scholes_resource())
        assert rb.bound > 0
        assert ridge_intensity(host) > 0

    def test_single_core(self, host):
        assert host.total_cores == 1


class TestFingerprint:
    def test_facts_cover_the_identity_axes(self):
        facts = host_facts()
        for key in ("hostname", "machine", "system", "cpu_model",
                    "cpu_count", "llc_bytes", "python"):
            assert key in facts
        assert facts["cpu_count"] >= 1
        assert facts["llc_bytes"] > 0

    def test_stable_on_one_host(self):
        # Same machine, same session: the policy-file key must not
        # wander between calls.
        assert machine_fingerprint() == machine_fingerprint()
        assert machine_fingerprint(host_facts()) == machine_fingerprint()

    def test_shape_is_short_hex(self):
        fp = machine_fingerprint()
        assert len(fp) == 16
        int(fp, 16)

    def test_distinct_inputs_give_distinct_keys(self):
        base = host_facts()
        seen = {machine_fingerprint(base)}
        for mutate in ({"cpu_count": base["cpu_count"] + 1},
                       {"llc_bytes": base["llc_bytes"] * 2},
                       {"hostname": base["hostname"] + "-other"},
                       {"python": "2.7"}):
            fp = machine_fingerprint({**base, **mutate})
            assert fp not in seen
            seen.add(fp)

    def test_key_order_does_not_matter(self):
        facts = {"b": 2, "a": 1}
        assert machine_fingerprint(facts) == \
            machine_fingerprint({"a": 1, "b": 2})

"""Steady-state serving benchmark: structure, audit, rendering."""

import pytest

from repro.bench.serve import (PEAK_NOISE_BUDGET, measure_steady_state,
                               steady_state_result)
from repro.config import SMOKE_SIZES
from repro.errors import ExperimentError


@pytest.fixture(scope="module")
def data():
    return measure_steady_state(sizes=SMOKE_SIZES, backends=("serial",),
                                samples=3, cold_samples=2, audit=True)


class TestMeasure:
    def test_covers_every_parallel_kernel(self, data):
        from repro import registry
        assert ({k["kernel"] for k in data["kernels"]}
                == set(registry.parallel_kernels()))

    def test_every_record_is_planned(self, data):
        for k in data["kernels"]:
            assert k["planned"], k["kernel"]

    def test_latency_fields_are_ordered(self, data):
        for k in data["kernels"]:
            assert 0 < k["warm_p50_s"] <= k["warm_p99_s"]
            assert k["cold_p50_s"] > 0 and k["warm_throughput"] > 0

    def test_audit_attached_and_clean_on_serial(self, data):
        for k in data["kernels"]:
            audit = k["audit"]
            assert audit["clean"], k["kernel"]
            assert audit["peak_within_budget"], k["kernel"]
        assert data["peak_noise_budget"] == PEAK_NOISE_BUDGET

    def test_small_batch_sweep_recorded(self, data):
        nopts = [r["nopt"] for r in data["small_batch"]]
        assert nopts == sorted(nopts) and len(nopts) >= 3
        for r in data["small_batch"]:
            assert r["cold_vs_warm_p50"] > 0

    def test_cache_section_counts_a_mixed_stream(self, data):
        cache = data["cache"]
        assert cache["hits"] >= 1 and cache["misses"] >= 2
        assert cache["evictions"] >= 1
        assert cache["maxsize"] == 2

    def test_samples_validated(self):
        with pytest.raises(ExperimentError):
            measure_steady_state(samples=0)


class TestRender:
    def test_result_renders_one_row_per_record(self, data):
        res = steady_state_result(data)
        assert res.exp_id == "steady_state"
        assert len(res.rows) == len(data["kernels"])
        assert "cold/warm" in res.headers and "audit" in res.headers
        assert any("plan cache" in n for n in res.notes)
        assert any("small-batch" in n for n in res.notes)

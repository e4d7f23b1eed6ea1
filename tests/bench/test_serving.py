"""Serving loadtest bench: document shape, digest gate, renderer."""

import pytest

from repro.bench import measure_serving, render, serving_result
from repro.errors import ExperimentError


@pytest.fixture(scope="module")
def data():
    # Tiny but real: both phases execute, every result digest-checked.
    return measure_serving(backend="serial", n_clients=4,
                           capacity_requests=24, latency_requests=12,
                           rates=(400.0, 800.0),
                           opts_range=(4, 12), n_signatures=2)


class TestMeasureServing:
    def test_document_shape(self, data):
        assert data["backend"] == "serial"
        cap = data["capacity"]
        assert set(cap) >= {"batched", "per_request", "speedup",
                            "gate_5x"}
        for mode in ("batched", "per_request"):
            assert cap[mode]["n_ok"] == 24
            assert cap[mode]["sustained_rps"] > 0
        # One row per arrival rate.
        assert [r["rate_rps"] for r in data["latency"]] == [400.0, 800.0]
        for row in data["latency"]:
            assert row["n_ok"] + row["n_shed"] + row["n_error"] == 12
            assert row["late_p99_ms"] >= 0.0
            # Below saturation req/s is the schedule's rate: not reported.
            assert "sustained_rps" not in row

    def test_no_window_compiles(self, data):
        # Every reachable width compiled before the clock started.
        cap = data["capacity"]
        for mode in ("batched", "per_request"):
            assert cap[mode]["compiles"] == 0
            assert cap[mode]["plan_cache"]["misses"] >= 1
        assert [r["compiles"] for r in data["latency"]] == [0, 0]

    def test_every_result_digest_checked(self, data):
        # 24 per capacity mode + 12 per latency row = 72, minus sheds.
        assert data["digests_checked"] > 0
        assert data["digests_ok"]
        assert data["digest_mismatches"] == []

    def test_per_request_mode_really_is_batch_size_one(self, data):
        hist = data["capacity"]["per_request"]["batch_requests_hist"]
        assert set(hist) == {"1"}

    def test_renderer(self, data):
        text = render(serving_result(data), "text")
        assert "Serving loadtest" in text
        assert "capacity" in text
        rendered = render(serving_result(data), "json")
        assert "p99 ms" in rendered

    def test_bad_counts_rejected(self):
        with pytest.raises(ExperimentError):
            measure_serving(n_clients=0)

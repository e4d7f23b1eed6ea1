"""Measured core-scaling study: structure, determinism, rendering."""

import pytest

from repro.bench import measure_scaling, scaling_result
from repro.config import WorkloadSizes
from repro.errors import ExperimentError

#: Seconds-scale sizes so the full backends x workers grid stays cheap.
_TINY = WorkloadSizes(
    black_scholes_nopt=512, binomial_steps=(16, 32), binomial_nopt=4,
    brownian_steps=16, brownian_paths=128, mc_path_length=512, mc_nopt=2,
    cn_prices=32, cn_steps=10, cn_nopt=2, rng_numbers=256,
)


@pytest.fixture(scope="module")
def data():
    """One shared grid run (two kernels keep the module fast while still
    covering a modeled kernel and the unmodeled rng kernel)."""
    return measure_scaling(
        sizes=_TINY, worker_counts=(1, 2), repeats=1,
        kernels=("black_scholes", "rng"))


class TestMeasureScaling:
    def test_grid_structure(self, data):
        assert data["worker_counts"] == [1, 2]
        assert data["backends"] == ["serial", "thread", "process",
                                    "daemon"]
        assert data["cpu_count"] >= 1 and data["slab_bytes"] > 0
        kernels = {k["kernel"]: k for k in data["kernels"]}
        assert set(kernels) == {"black_scholes", "rng"}
        for k in kernels.values():
            # Full grid: one point per backend x worker count.
            assert len(k["points"]) == 4 * 2
            assert k["items"] > 0 and k["serial_s"] > 0
            assert k["tier"]

    def test_dispatch_overhead_recorded(self, data):
        # One probe per backend x worker pair, stamped on every point.
        pairs = {(ov["backend"], ov["n_workers"]): ov["us"]
                 for ov in data["dispatch_overhead"]}
        assert set(pairs) == {(b, w) for b in data["backends"]
                              for w in data["worker_counts"]}
        assert all(us > 0 for us in pairs.values())
        for k in data["kernels"]:
            for p in k["points"]:
                assert p["dispatch_overhead_us"] > 0

    def test_every_point_matches_serial_digest(self, data):
        for k in data["kernels"]:
            for p in k["points"]:
                assert p["agrees"] is True
                assert p["digest"] == k["serial_digest"]

    def test_speedup_and_efficiency_consistent(self, data):
        for k in data["kernels"]:
            for p in k["points"]:
                assert p["speedup"] == pytest.approx(
                    k["serial_s"] / p["time_s"])
                assert p["efficiency"] == pytest.approx(
                    p["speedup"] / p["n_workers"])

    def test_serial_baseline_point_reused(self, data):
        for k in data["kernels"]:
            base = next(p for p in k["points"]
                        if p["backend"] == "serial" and p["n_workers"] == 1)
            assert base["time_s"] == k["serial_s"]
            assert base["speedup"] == pytest.approx(1.0)

    def test_modeled_curves_overlaid_when_modeled(self, data):
        kernels = {k["kernel"]: k for k in data["kernels"]}
        # black_scholes has a machine model: SNB-EP and KNC ladders.
        modeled = kernels["black_scholes"]["modeled"]
        assert set(modeled) == {"SNB-EP", "KNC"}
        for curve in modeled.values():
            assert curve[0]["cores"] == 1
            assert curve[0]["speedup"] == pytest.approx(1.0)
            assert all(c["efficiency"] <= 1.0 + 1e-9 for c in curve)
            cores = [c["cores"] for c in curve]
            assert cores == sorted(cores)
        # rng is a functional-only kernel: no modeled overlay.
        assert kernels["rng"]["modeled"] is None

    def test_rendering(self, data):
        result = scaling_result(data)
        assert result.exp_id == "scaling_measured"
        assert len(result.rows) == sum(len(k["points"])
                                       for k in data["kernels"])
        assert all(row[-1] == "yes" for row in result.rows)
        notes = "\n".join(result.notes)
        assert "black_scholes modeled full-chip" in notes
        assert "rng modeled" not in notes


class TestValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ExperimentError):
            measure_scaling(sizes=_TINY, backends=("serial", "cuda"))

    def test_worker_counts_validated(self):
        with pytest.raises(ExperimentError):
            measure_scaling(sizes=_TINY, worker_counts=(0,))

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ExperimentError):
            measure_scaling(sizes=_TINY, kernels=("no_such_kernel",))


"""Measured Ninja-gap sweep tests: coverage, agreement, determinism
and rendering."""

import pytest

from repro import registry
from repro.bench import (MeasuredNinjaGap, measure_ninja_sweep,
                         measured_gaps, render, sweep_detail_result,
                         sweep_gap_result)
from repro.bench.suite import MEASURED
from repro.config import WorkloadSizes
from repro.errors import ExperimentError

_TINY = WorkloadSizes(
    black_scholes_nopt=512, binomial_steps=(16, 32), binomial_nopt=4,
    brownian_steps=16, brownian_paths=128, mc_path_length=512, mc_nopt=2,
    cn_prices=32, cn_steps=10, cn_nopt=2, rng_numbers=256,
)


@pytest.fixture(scope="module")
def sweep():
    """One run on all four backends (the default)."""
    return measure_ninja_sweep(sizes=_TINY, repeats=1, n_workers=2)


class TestSweepStructure:
    def test_covers_every_registered_kernel_and_tier(self, sweep):
        by_kernel = {k["kernel"]: k for k in sweep["kernels"]}
        assert tuple(by_kernel) == registry.kernels()
        for kernel, entry in by_kernel.items():
            timed = {(t["tier"], t["backend"]) for t in entry["tiers"]}
            registered = {(i.tier, i.backend)
                          for i in registry.impls(kernel=kernel)}
            assert timed == registered

    def test_every_tier_agrees_and_is_timed(self, sweep):
        for k in sweep["kernels"]:
            for t in k["tiers"]:
                assert t["agrees"], f"{k['kernel']}/{t['tier']}"
                assert t["time_s"] > 0 and t["rate"] > 0
                assert t["outputs"], f"{k['kernel']}/{t['tier']}"
                if t["checked"]:
                    # Checked tiers always share at least one output
                    # (the price vector) with the reference.
                    assert t["max_abs_diff"] is not None
                    assert t["max_abs_diff"] <= t["tolerance"]

    def test_gap_fields(self, sweep):
        for k in sweep["kernels"]:
            assert k["measured_gap"] > 0
            assert k["reference_tier"] in {t["tier"] for t in k["tiers"]}
            if k["kernel"] == "rng":
                assert k["modeled_gap"] is None
            else:
                assert set(k["modeled_gap"]) == {"SNB-EP", "KNC"}

    def test_measured_gap_consistent_with_tiers(self, sweep):
        for k in sweep["kernels"]:
            ref = next(t for t in k["tiers"]
                       if t["tier"] == k["reference_tier"]
                       and t["backend"] == "serial")
            best = max(t["rate"] for t in k["tiers"])
            assert k["measured_gap"] == pytest.approx(best / ref["rate"])


class TestDeterminism:
    def test_backends_produce_identical_digests(self, sweep):
        # For a fixed seed every pooled backend must be bit-identical
        # to the serial backend: same tier, same digest.
        for k in sweep["kernels"]:
            by_backend = {}
            for t in k["tiers"]:
                by_backend.setdefault(t["tier"], {})[t["backend"]] = \
                    t["digest"]
            for tier, digests in by_backend.items():
                for backend, digest in digests.items():
                    assert digest == digests["serial"], \
                        f"{k['kernel']}/{tier}[{backend}]"

    def test_rerun_same_seed_same_digests(self, sweep):
        again = measure_ninja_sweep(sizes=_TINY, repeats=1, n_workers=2,
                                    backends=("serial",),
                                    kernels=("black_scholes", "rng"))
        want = {k["kernel"]: k for k in sweep["kernels"]}
        for k in again["kernels"]:
            for t in k["tiers"]:
                match = next(x for x in want[k["kernel"]]["tiers"]
                             if x["tier"] == t["tier"]
                             and x["backend"] == "serial")
                assert t["digest"] == match["digest"]


class TestGate:
    def test_four_backend_run_passes_every_check(self, sweep):
        assert sweep["backends"] == list(registry.BACKENDS)
        assert MEASURED["sweep"].failures(sweep, True) == []
        tiers = [(k["kernel"], t) for k in sweep["kernels"]
                 for t in k["tiers"]]
        # Every tier registered on more than one backend was timed on
        # each of them, so the gate compared its digests.
        backends = {}
        for kernel, t in tiers:
            backends.setdefault((kernel, t["tier"]), set()).add(
                t["backend"])
        registered = {}
        for i in registry.impls():
            registered.setdefault((i.kernel, i.tier), set()).add(
                i.backend)
        multi = {key for key, b in registered.items() if len(b) > 1}
        assert multi and {key for key, b in backends.items()
                          if len(b) > 1} == multi
        # Every serial impl with a planner carries a clean audit, and
        # only those do.
        audited = {(kernel, t["tier"]) for kernel, t in tiers
                   if t["audit"] is not None}
        planned = {(i.kernel, i.tier)
                   for i in registry.impls(backend="serial")
                   if i.planner is not None}
        assert planned and audited == planned
        for kernel, t in tiers:
            assert t["planned"] == (t["backend"] != "serial"
                                    or (kernel, t["tier"]) in planned)
            if t["audit"] is not None:
                assert t["audit"]["clean"] and t["audit"]["held_bytes"] == 0


class TestFiltersAndValidation:
    def test_kernel_subset(self):
        data = measure_ninja_sweep(sizes=_TINY, repeats=1,
                                   backends=("serial",),
                                   kernels=("binomial",))
        assert [k["kernel"] for k in data["kernels"]] == ["binomial"]

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ExperimentError, match="unknown kernel"):
            measure_ninja_sweep(sizes=_TINY, kernels=("heston",))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExperimentError, match="unknown backend"):
            measure_ninja_sweep(sizes=_TINY, backends=("cuda",))


class TestRendering:
    def test_gap_table(self, sweep):
        result = sweep_gap_result(sweep)
        text = render(result, "text")
        for kernel in registry.kernels():
            assert kernel in text
        assert "AVERAGE" in text and "measured" in text
        # One row per kernel plus the geomean row.
        assert len(result.rows) == len(registry.kernels()) + 1

    def test_detail_table(self, sweep):
        result = sweep_detail_result(sweep)
        n_tiers = sum(len(k["tiers"]) for k in sweep["kernels"])
        assert len(result.rows) == n_tiers
        assert render(result, "csv").count("\n") >= n_tiers

    def test_measured_gaps_view(self, sweep):
        gaps = measured_gaps(sweep)
        assert len(gaps) == len(registry.kernels())
        for g in gaps:
            assert isinstance(g, MeasuredNinjaGap)
            assert g.measured_gap == pytest.approx(
                g.best_rate / g.reference_rate)

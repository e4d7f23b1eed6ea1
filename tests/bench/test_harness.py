"""Functional-harness tests: timing and the registry-owned workloads
the benches share."""

import numpy as np
import pytest

from repro import registry
from repro.bench import TimedRun, time_run
from repro.config import BENCH_WARMUP, SMALL_SIZES
from repro.errors import ExperimentError
from repro.pricing import ExerciseStyle


class TestTimeRun:
    def test_measures_and_rates(self):
        r = time_run("t", lambda: sum(range(1000)), items=1000)
        assert isinstance(r, TimedRun)
        assert r.seconds > 0
        assert r.rate == pytest.approx(1000 / r.seconds)

    def test_best_of_repeats(self):
        calls = []
        time_run("t", lambda: calls.append(1), items=1, repeats=5, warmup=0)
        assert len(calls) == 5

    def test_warmup_runs_untimed(self):
        # Default: one extra untimed call before the timed repeats.
        calls = []
        time_run("t", lambda: calls.append(1), items=1, repeats=3)
        assert len(calls) == 3 + BENCH_WARMUP
        # Explicit warmup adds exactly that many extra executions.
        calls.clear()
        time_run("t", lambda: calls.append(1), items=1, repeats=2, warmup=4)
        assert len(calls) == 6

    def test_repeats_validated(self):
        with pytest.raises(ExperimentError):
            time_run("t", lambda: None, items=1, repeats=0)

    def test_warmup_validated(self):
        with pytest.raises(ExperimentError):
            time_run("t", lambda: None, items=1, repeats=1, warmup=-1)

    def test_median_and_spread(self):
        r = time_run("t", lambda: sum(range(200)), items=1, repeats=5)
        # best-of <= median <= best-of + spread, spread >= 0.
        assert r.seconds <= r.median <= r.seconds + r.spread
        assert r.spread >= 0

    def test_single_repeat_degenerate_stats(self):
        r = time_run("t", lambda: None, items=1, repeats=1)
        assert r.median == r.seconds
        assert r.spread == 0.0

    def test_backward_compatible_construction(self):
        # Old call sites build TimedRun without the new fields.
        r = TimedRun(label="x", seconds=2.0, items=10)
        assert r.median == 0.0 and r.spread == 0.0
        assert r.rate == 5.0


def _payload(kernel, seed=2012):
    return registry.workload(kernel).build(SMALL_SIZES, seed=seed)


class TestWorkloadBuilders:
    def test_bs_workload_size_and_layout(self):
        b = _payload("black_scholes")["aos"]
        assert len(b) == SMALL_SIZES.black_scholes_nopt
        assert b.layout == "aos"

    def test_bs_workload_deterministic(self):
        a = _payload("black_scholes")["soa"]
        b = _payload("black_scholes")["soa"]
        assert np.array_equal(a.S, b.S)

    def test_binomial_workload(self):
        opts = _payload("binomial")["options"]
        assert len(opts) == SMALL_SIZES.binomial_nopt
        assert all(80 <= o.strike <= 120 for o in opts)

    def test_brownian_randoms_sized_for_paths(self):
        z = _payload("brownian")["randoms"]
        assert z.size == (SMALL_SIZES.brownian_paths
                          * SMALL_SIZES.brownian_steps)
        assert abs(z.mean()) < 0.05

    def test_mc_workload(self):
        p = _payload("monte_carlo")
        assert p["S"].shape == (SMALL_SIZES.mc_nopt,)
        assert p["randoms"].size == SMALL_SIZES.mc_path_length

    def test_cn_workload_all_american_puts(self):
        opts = _payload("crank_nicolson")["options"]
        assert len(opts) == SMALL_SIZES.cn_nopt
        assert all(o.style is ExerciseStyle.AMERICAN for o in opts)


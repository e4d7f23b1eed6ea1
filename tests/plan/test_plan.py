"""ExecutionPlan: compile, digest agreement, rebind, zero-allocation.

The plan layer's correctness contract is bit-identity: two independent
compiles of a tier — the registered ``fn`` (its one-shot: compile, run
once, retire) and a warm plan — must agree exactly, and a replay must
reproduce the first run, for every kernel and backend.  Its
performance contract is allocation-freedom:
a warm ``plan.run`` performs zero numpy-domain allocations that
survive the call (tracemalloc audit).
"""

import numpy as np
import pytest

from repro import registry
from repro.config import SMOKE_SIZES
from repro.errors import ConfigurationError
from repro.parallel import SlabExecutor
from repro.plan import (PlanCache, audit_allocations, cached_plan,
                        compile_plan, plan_key)
from repro.plan.audit import PEAK_NOISE_BUDGET

KERNELS = registry.parallel_kernels()
BACKENDS = ("serial", "thread", "process", "daemon")


def build(kernel, sizes=SMOKE_SIZES, seed=2012):
    return registry.workload(kernel).build(sizes, seed=seed)


class TestDigestAgreement:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_planned_matches_unplanned(self, kernel, backend):
        # Since ISSUE 17 ``fn`` is the planner's one-shot, not a second
        # body, so this is two-independent-compiles-agree plus replay
        # stability; the id is pinned by the tier-1 floor list.
        payload = build(kernel)
        impl = registry.impl(kernel, "parallel", backend)
        with SlabExecutor(backend) as ex:
            cold = np.asarray(impl.fn(payload, ex))
        with compile_plan(kernel, "parallel", payload,
                          backend=backend) as plan:
            assert plan.planned, f"{kernel} has no planner"
            warm = np.asarray(plan.run())
            assert np.array_equal(cold, warm), \
                f"{kernel}[{backend}] planned digest diverged"
            # Replay: the second warm run must reproduce the first.
            assert np.array_equal(warm.copy(), np.asarray(plan.run()))


class TestZeroAllocation:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_warm_run_holds_no_numpy_allocations(self, kernel):
        with compile_plan(kernel, "parallel", build(kernel),
                          backend="serial") as plan:
            audit = audit_allocations(plan.run)
            assert audit.clean, (
                f"{kernel}: warm run held {audit.numpy_blocks} numpy "
                f"blocks / {audit.numpy_bytes} B")
            assert audit.peak_bytes <= PEAK_NOISE_BUDGET, (
                f"{kernel}: transient peak {audit.peak_bytes} B exceeds "
                f"the nditer-noise budget {PEAK_NOISE_BUDGET} B")


class TestRebind:
    def test_new_numbers_same_plan(self):
        # Same shape, different seed: rebind streams the new arrays in.
        p1 = build("monte_carlo", seed=2012)
        p2 = build("monte_carlo", seed=7)
        with SlabExecutor("serial") as ex:
            expected = np.asarray(
                registry.impl("monte_carlo", "parallel", "serial")
                .fn(p2, ex))
        with compile_plan("monte_carlo", "parallel", p1,
                          backend="serial") as plan:
            got = np.asarray(plan.run(p2))
            assert np.array_equal(expected, got)

    def test_shape_change_raises(self):
        import dataclasses
        with compile_plan("black_scholes", "parallel",
                          build("black_scholes"),
                          backend="serial") as plan:
            grown = dataclasses.replace(SMOKE_SIZES,
                                        black_scholes_nopt=128)
            with pytest.raises(ConfigurationError):
                plan.run(build("black_scholes", sizes=grown))

    def test_option_batch_streams_columns_and_freezes_floats(self):
        from repro.pricing import OptionBatch
        ones = np.ones(8)

        def payload(rate, vol):
            return {"soa": OptionBatch(ones * 100.0, ones * 95.0, ones,
                                       rate, vol)}

        with SlabExecutor("serial") as ex:
            fn = registry.impl("black_scholes", "parallel", "serial").fn
            want = np.asarray(fn(payload(0.01, 0.4), ex))
            # Columns are streamed: new values ride the same plan.
            with compile_plan("black_scholes", "parallel",
                              payload(ones * 0.05, ones * 0.2),
                              backend="serial", executor=ex) as plan:
                got = np.asarray(plan.run(payload(ones * 0.01, ones * 0.4)))
                assert np.array_equal(got, want)
                with pytest.raises(ConfigurationError, match="form"):
                    plan.run(payload(0.01, 0.4))
            # A shared float is a plan constant: a change is a new plan.
            with compile_plan("black_scholes", "parallel",
                              payload(0.05, 0.2), backend="serial",
                              executor=ex) as plan:
                with pytest.raises(ConfigurationError,
                                   match="compile a new plan"):
                    plan.run(payload(0.01, 0.4))

    def test_out_receives_a_copy(self):
        payload = build("rng")
        with compile_plan("rng", "parallel", payload,
                          backend="serial") as plan:
            out = np.empty(payload["n"])
            got = plan.run(out=out)
            assert got is out
            assert np.array_equal(out, np.asarray(plan.run()))


class TestPlanIdentity:
    def test_plan_key_hashes_shape_not_values(self):
        # Array contents don't shape the key (same-width batches share
        # a plan) …
        k1 = plan_key("monte_carlo", "parallel", "serial", 1,
                      build("monte_carlo"))
        k2 = plan_key("monte_carlo", "parallel", "serial", 1,
                      build("monte_carlo", seed=99))
        assert k1 == k2
        # … but plan-shaping scalars do: the rng payload carries its
        # seed (jump-ahead states are baked in), so a new seed is a new
        # key, as is a new worker count.
        assert (plan_key("rng", "parallel", "serial", 1, build("rng"))
                != plan_key("rng", "parallel", "serial", 1,
                            build("rng", seed=99)))
        assert (plan_key("rng", "parallel", "serial", 1, build("rng"))
                != plan_key("rng", "parallel", "serial", 2,
                            build("rng")))

    def test_unplanned_tier_still_compiles(self):
        # A tier without a planner wraps its cold fn: uniform plan()
        # path, flagged planned=False.
        payload = build("black_scholes")
        with compile_plan("black_scholes", "advanced", payload,
                          backend="serial") as plan:
            assert not plan.planned
            # [calls | puts] for the batch, like every BS tier returns.
            assert np.asarray(plan.run()).shape == (2 * payload["soa"].n,)

    def test_describe_names_the_arena(self):
        with compile_plan("rng", "parallel", build("rng"),
                          backend="serial") as plan:
            text = plan.describe()
            assert "planned" in text and "WorkspaceArena" in text


class TestCachedPlan:
    def test_same_shape_hits_new_shape_misses(self):
        import dataclasses
        cache = PlanCache(maxsize=2)
        p1 = build("rng")
        a = cached_plan("rng", "parallel", p1, backend="serial",
                        n_workers=1, cache=cache)
        b = cached_plan("rng", "parallel", build("rng"),
                        backend="serial", n_workers=1, cache=cache)
        assert a is b and cache.stats["hits"] == 1
        grown = dataclasses.replace(SMOKE_SIZES, rng_numbers=1 << 13)
        c = cached_plan("rng", "parallel", build("rng", sizes=grown),
                        backend="serial", n_workers=1, cache=cache)
        assert c is not a and cache.stats["misses"] == 2
        cache.clear()

    def test_scenario_rebind_reexpands_the_grid(self):
        # Regression: the scenario planner expands the batch into its
        # bump grid at compile time; a cached plan re-run with new
        # numbers must re-tile, not price the stale grid.
        from repro.pricing import OptionBatch

        def payload(lo, hi):
            return {"soa": OptionBatch(np.linspace(lo, hi, 8),
                                       np.full(8, 100.0),
                                       np.full(8, 1.0), 0.05, 0.2)}

        cache = PlanCache(maxsize=2)
        p1, p2 = payload(80.0, 120.0), payload(60.0, 90.0)
        a = cached_plan("black_scholes", "scenario", p1,
                        backend="serial", n_workers=1, cache=cache)
        stale = np.asarray(a.run()).copy()
        b = cached_plan("black_scholes", "scenario", p2,
                        backend="serial", n_workers=1, cache=cache)
        assert b is a and cache.stats["hits"] == 1
        got = np.asarray(b.run()).copy()
        impl = registry.impl("black_scholes", "scenario", "serial")
        with SlabExecutor("serial") as ex:
            cold = np.asarray(impl.fn(payload(60.0, 90.0), ex))
        assert np.array_equal(got, cold), \
            "cached scenario plan priced a stale grid after rebind"
        assert not np.array_equal(got, stale)
        cache.clear()

    def test_scenario_rebind_rejects_changed_constants(self):
        from repro.pricing import OptionBatch

        def payload(vol):
            return {"soa": OptionBatch(np.full(8, 100.0),
                                       np.full(8, 95.0),
                                       np.full(8, 1.0), 0.05, vol)}

        cache = PlanCache(maxsize=2)
        cached_plan("black_scholes", "scenario", payload(0.2),
                    backend="serial", n_workers=1, cache=cache)
        # rate/vol are part of the shape key, so a different vol is a
        # cache miss (a new plan), never a bad rebind.
        other = cached_plan("black_scholes", "scenario", payload(0.3),
                            backend="serial", n_workers=1, cache=cache)
        assert cache.stats["misses"] == 2
        assert np.asarray(other.run()).shape[0] == 25 * 8
        cache.clear()

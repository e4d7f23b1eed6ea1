"""Plan-compiled Greeks tiers: warm runs must reproduce the cold
(one-shot: an independent compile, run once, retired) digest exactly,
replay after replay, and allocate nothing in the numpy domain — the
zero-allocation steady state extended to multi-output slabs."""

import pytest

from repro import registry
from repro.config import SMOKE_SIZES
from repro.parallel import SlabExecutor
from repro.plan import audit_allocations, compile_plan
from repro.results import as_result_slab

KERNELS = registry.greeks_kernels()


class TestPlannedGreeks:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_planned_digest_matches_cold(self, kernel):
        tier = registry.greeks_tier(kernel)
        spec = registry.workload(kernel)
        payload = spec.build(SMOKE_SIZES, seed=2012)
        impl = registry.impl(kernel, tier, "serial")
        with SlabExecutor("serial") as ex:
            cold = as_result_slab(impl.fn(payload, ex),
                                  impl.outputs).digest()
        with compile_plan(kernel, tier, payload,
                          backend="serial") as plan:
            assert plan.planned
            warm = as_result_slab(plan.run(), impl.outputs)
            assert warm.outputs == impl.outputs
            assert warm.digest() == cold
            # Warm reruns are stable, not merely first-run correct.
            assert as_result_slab(plan.run(),
                                  impl.outputs).digest() == cold

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_warm_run_allocation_clean(self, kernel):
        tier = registry.greeks_tier(kernel)
        payload = registry.workload(kernel).build(SMOKE_SIZES, seed=2012)
        with compile_plan(kernel, tier, payload,
                          backend="serial") as plan:
            plan.run()  # warm-up: lazy one-time costs paid here
            audit = audit_allocations(plan.run)
            assert audit.clean, (
                f"{kernel} warm planned greeks run allocated "
                f"{audit.peak_bytes} bytes in the numpy domain")

    # The lattice kernels' slab bodies differ by backend (arena
    # workspace in-process, built in the worker out of process; one
    # slab in the caller, worker-aware slabs on a pool): the digest may
    # not.
    @pytest.mark.parametrize("backend", ["thread", "process", "daemon"])
    @pytest.mark.parametrize("kernel", ["binomial", "crank_nicolson"])
    def test_lattice_planned_digest_matches_serial_cold(self, kernel,
                                                        backend):
        tier = registry.greeks_tier(kernel)
        payload = registry.workload(kernel).build(SMOKE_SIZES, seed=2012)
        impl = registry.impl(kernel, tier, "serial")
        with SlabExecutor("serial") as ex:
            cold = as_result_slab(impl.fn(payload, ex),
                                  impl.outputs).digest()
        with compile_plan(kernel, tier, payload, backend=backend) as plan:
            assert as_result_slab(plan.run(),
                                  impl.outputs).digest() == cold

"""Functional-tier registry tests: population, ordering, lookups and
registration-time validation."""

import pytest

from repro import registry
from repro.errors import ConfigurationError
from repro.kernels.base import OptLevel

#: The paper's Sec. IV presentation order, which registration must keep
#: (the modeled Ninja table and its golden baseline rely on it).
PAPER_ORDER = ("black_scholes", "binomial", "brownian", "monte_carlo",
               "crank_nicolson", "rng")


class TestPopulation:
    def test_kernels_in_paper_order(self):
        assert registry.kernels() == PAPER_ORDER

    def test_every_kernel_has_workload_and_reference(self):
        for kernel in registry.kernels():
            spec = registry.workload(kernel)
            assert spec.kernel == kernel
            assert spec.scale > 0 and spec.unit.strip()
            ref = registry.reference_impl(kernel)
            assert ref.level is OptLevel.REFERENCE
            assert ref.backend == "serial"

    def test_tiers_ladder_ordered(self):
        for kernel in registry.kernels():
            levels = [registry.impl(kernel, t).level.order
                      for t in registry.tiers(kernel)]
            assert levels == sorted(levels)

    def test_parallel_kernels_have_all_backends(self):
        parallel = registry.parallel_kernels()
        assert set(parallel) == {"black_scholes", "binomial", "brownian",
                                 "monte_carlo", "crank_nicolson", "rng"}
        for kernel in parallel:
            tier = registry.parallel_tier(kernel)
            for backend in registry.BACKENDS:
                assert registry.impl(kernel, tier, backend).fn is \
                    registry.impl(kernel, tier, "serial").fn

    def test_rng_parallel_is_exactly_checked(self):
        # The jump-ahead tier keeps the kernel's 0.0 tolerance: it must
        # reproduce the scalar reference stream bit for bit.
        impl = registry.impl("rng", "parallel", "process")
        assert impl.checked
        assert (impl.tolerance if impl.tolerance is not None
                else registry.workload("rng").tolerance) == 0.0

    def test_baseline_tier_is_registered_serial(self):
        for kernel in registry.parallel_kernels():
            baseline = registry.workload(kernel).baseline_tier
            assert registry.impl(kernel, baseline, "serial")


class TestOneBodyPerSlabTier:
    """A slab tier's dispatch is declared once, in its ``compile_*``
    function; ``fn`` is that function's one-shot (ISSUE 17).  These two
    invariants keep a second hand-written body from coming back."""

    #: The planner-less one-shot helpers — no registered tier, so no
    #: ``compile_*`` twin to go through.
    ONE_SHOT_HELPERS = {"price_computed_parallel", "price_asian_parallel",
                        "build_interleaved_parallel"}

    def test_every_pooled_impl_has_a_planner(self):
        missing = [i.label for i in registry.impls()
                   if i.backend != "serial" and i.planner is None]
        assert missing == []

    def test_kernels_call_map_shm_only_in_the_helpers(self):
        import ast
        from pathlib import Path

        import repro.kernels

        callers = set()
        for path in Path(repro.kernels.__file__).parent.rglob("*.py"):
            tree = ast.parse(path.read_text())
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if any(isinstance(node, ast.Call)
                       and isinstance(node.func, ast.Attribute)
                       and node.func.attr == "map_shm"
                       for node in ast.walk(fn)):
                    callers.add(fn.name)
        assert callers == self.ONE_SHOT_HELPERS


class TestPolicyIsReadAtCompileTime:
    """A dispatch decision is a table read at compile time (ISSUE 21):
    nothing under ``serve``/``parallel`` persists a table (no ``.save(``
    call at all) or imports ``random`` to explore alternatives."""

    def test_served_path_neither_saves_nor_draws_random(self):
        import ast
        from pathlib import Path

        import repro.parallel
        import repro.serve

        offenders = []
        for pkg in (repro.serve, repro.parallel):
            for path in Path(pkg.__file__).parent.rglob("*.py"):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Call) \
                            and isinstance(node.func, ast.Attribute) \
                            and node.func.attr == "save":
                        offenders.append(f"{path.name}: .save(")
                    elif isinstance(node, ast.Import) and any(
                            a.name.split(".")[0] == "random"
                            for a in node.names):
                        offenders.append(f"{path.name}: import random")
                    elif isinstance(node, ast.ImportFrom) \
                            and node.level == 0 and node.module \
                            and node.module.split(".")[0] == "random":
                        offenders.append(f"{path.name}: from random")
        assert offenders == []


class TestLookups:
    def test_impl_filtering(self):
        serial = registry.impls(kernel="black_scholes", backend="serial")
        assert all(i.backend == "serial" for i in serial)
        assert [i.tier for i in serial] == ["reference", "basic",
                                            "intermediate", "advanced",
                                            "parallel", "greeks",
                                            "implied", "scenario"]

    def test_unknown_kernel_raises(self):
        with pytest.raises(ConfigurationError, match="no workload"):
            registry.workload("heston")

    def test_unknown_impl_raises_with_known_list(self):
        with pytest.raises(ConfigurationError, match="registered"):
            registry.impl("black_scholes", "ninja")

    def test_label(self):
        impl = registry.impl("brownian", "parallel", "thread")
        assert impl.label == "brownian/parallel[thread]"


class TestRegistrationValidation:
    def test_duplicate_workload_rejected(self):
        spec = registry.workload("rng")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register_workload(spec)

    def test_duplicate_impl_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register_impl("rng", "reference", OptLevel.REFERENCE,
                                   lambda p, ex: None)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            registry.register_impl("rng", "gpu_tier", OptLevel.ADVANCED,
                                   lambda p, ex: None, backends=("cuda",))


class TestDerivedConsumers:
    def test_gap_kernels_derived_from_registry(self):
        from repro.bench import GAP_KERNELS
        assert GAP_KERNELS == tuple(
            k for k in registry.kernels()
            if registry.workload(k).modeled_gap)
        assert "rng" not in GAP_KERNELS

    def test_cli_choices_cover_registry(self):
        # Every registered kernel is a valid `figure`/`profile` choice.
        from repro.__main__ import main
        for kernel in registry.kernels():
            assert main(["profile", kernel]) == 0

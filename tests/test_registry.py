"""Functional-tier registry tests: population, ordering (whatever order
the kernels are first looked up in), lookups and registration-time
validation."""

import json
import os
import subprocess
import sys

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


class TestOneBodyPerSlabTier:
    """A slab tier's dispatch is declared once, in its ``compile_*``
    function; ``fn`` is that function's one-shot (ISSUE 17).  These two
    invariants keep a second hand-written body from coming back."""

    #: Kernel functions allowed to dispatch slabs without a plan: none,
    #: every slab dispatch is a registered tier's ``compile_*``.
    ONE_SHOT_HELPERS = set()

    def test_every_pooled_impl_has_a_planner(self):
        missing = [i.label for i in registry.impls()
                   if i.backend != "serial" and i.planner is None]
        assert missing == []

    def test_every_planned_fn_is_its_planners_one_shot(self):
        from repro.plan.plan import planned_fn
        code = planned_fn(None).__code__
        other = [i.label for i in registry.impls()
                 if i.planner is not None
                 and (i.fn.__code__ is not code
                      or i.fn.__closure__[0].cell_contents is not i.planner)]
        assert other == []

    def test_kernels_call_map_shm_only_in_the_helpers(self):
        """No kernel function calls ``map_shm``: a slab dispatch under
        ``repro.kernels`` is compiled, never one-shot by hand."""
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

    def test_fn_xor_planner(self):
        """A tier registers a fn or a planner, whose one-shot is its
        fn; both or neither is refused and registers nothing."""
        before = registry.impls("rng")
        with pytest.raises(ConfigurationError, match="not both"):
            registry.register_impl("rng", "probe", OptLevel.PARALLEL,
                                   lambda p, ex: None,
                                   planner=lambda p, ex, arena: None)
        with pytest.raises(ConfigurationError, match="not neither"):
            registry.register_impl("rng", "probe", OptLevel.PARALLEL)
        assert registry.impls("rng") == before


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


#: Looks ``FIRST`` up in a fresh interpreter, then prints every listing
#: whose order is part of ``experiment all``'s output.
ORDER_PROBE = """
import json
from repro import registry
for kernel in FIRST:
    registry.workload(kernel)
    registry.impls(kernel)
from repro.bench.ninja import ninja_table
print(json.dumps({
    "kernels": registry.kernels(),
    "impls": [i.label for i in registry.impls()],
    "ninja": [row[0] for row in ninja_table()[0]],
}))
"""


class TestOrderIndependentOfLookups:
    @staticmethod
    def _listings(first: tuple) -> dict:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", ORDER_PROBE.replace("FIRST", repr(first))],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_rng_then_crank_nicolson_first_keeps_paper_order(self):
        late = self._listings(("rng", "crank_nicolson"))
        assert tuple(late["kernels"]) == PAPER_ORDER
        assert tuple(late["ninja"]) == PAPER_ORDER[:-1]
        assert late == self._listings(())
        assert late["impls"] == [i.label for i in registry.impls()]

"""R003 — process-backend picklability of slab bodies.

The process backend ships each slab task as ``(fn, specs, consts,
start, stop, slab)``; ``fn`` travels by reference, which requires a
module-level function.  A lambda, a nested ``def`` (closure capture), a
bound method or a ``partial`` either fails to pickle — or worse,
pickles by value with stale captured state.  The thread backend happens
to tolerate all of these, so the error only surfaces when someone
switches ``backend="process"``: exactly the latent breakage a linter
should catch at review time.

The rule proves, per slab dispatch site (``map_shm``, ``compile_shm``,
``compile_lanes``), that the slab-body argument is a bare name bound at
module level (a top-level ``def``, an imported function, or
``module.attr`` on an imported module).
"""

from __future__ import annotations

import ast

from ..rule import Rule, register
from ..slabs import local_names, module_namespace, slab_sites


@register
class SlabBodyPicklability(Rule):
    code = "R003"
    name = "slab body must be a module-level (picklable) function"
    rationale = (
        "The out-of-process backends ship the slab body to worker "
        "processes by reference (per task on the pool, once per pin on "
        "the daemon): pickle stores only module and qualified name. "
        "Lambdas, nested defs, bound methods and partials are not "
        "importable by name, so the dispatch works on the thread "
        "backend and explodes (or silently captures stale state) the "
        "day the kernel runs on backend='process'. Keeping every slab "
        "body a module-level function is what makes one kernel shape "
        "portable across all four backends."
    )
    example_bad = (
        "def price(batch, executor):\n"
        "    def body(arrays, consts, a, b, slab):   # closure\n"
        "        arrays['out'][:] = batch.scale      # captured state\n"
        "    executor.map_shm(body, n, sliced={'out': out},\n"
        "                     writes=('out',))"
    )
    example_fix = (
        "def _body(arrays, consts, a, b, slab):      # module level\n"
        "    arrays['out'][:] = consts['scale']      # shipped state\n"
        "def price(batch, executor):\n"
        "    executor.map_shm(_body, n, sliced={'out': out},\n"
        "                     writes=('out',), consts={'scale': s})"
    )

    def check(self, sf, ctx):
        defs, importable = module_namespace(sf.tree)
        for site in slab_sites(sf.tree):
            expr = site.fn_expr
            if isinstance(expr, ast.Lambda):
                yield self.finding(
                    sf, expr,
                    "slab body is a lambda; the process backend cannot "
                    "pickle it by reference — define a module-level "
                    "function")
                continue
            if isinstance(expr, ast.Call):
                yield self.finding(
                    sf, expr,
                    "slab body is built by a call expression (e.g. "
                    "functools.partial); ship per-slab state through "
                    "consts=/per_slab= and pass a module-level function")
                continue
            if isinstance(expr, ast.Attribute):
                base = expr.value
                if isinstance(base, ast.Name) and base.id in importable:
                    continue        # imported_module.fn — by reference
                yield self.finding(
                    sf, expr,
                    f"slab body {ast.unparse(expr)!r} looks like a "
                    f"bound method or instance attribute; pickling by "
                    f"reference needs a module-level function")
                continue
            if isinstance(expr, ast.Name):
                if expr.id in defs or expr.id in importable:
                    continue
                enclosing = sf.enclosing_function(site.call)
                if (enclosing is not None
                        and expr.id in local_names(enclosing)):
                    yield self.finding(
                        sf, expr,
                        f"slab body {expr.id!r} is defined inside "
                        f"{enclosing.name}; a nested function captures "
                        f"its closure and cannot be pickled by "
                        f"reference — move it to module level")
                else:
                    yield self.finding(
                        sf, expr,
                        f"slab body {expr.id!r} cannot be resolved to a "
                        f"module-level function or import in this "
                        f"module; the process backend needs one")
                continue
            yield self.finding(
                sf, expr,
                "slab body is not a plain function reference; the "
                "process backend needs a module-level function")

"""R001 — hot-loop allocation and missing ``out=`` in optimized tiers.

The paper's fused kernels (Sec. IV-A3, Listing 3) get their speedup by
keeping every intermediate in registers or a reused scratch block; one
``np`` call that allocates a fresh temporary per loop iteration quietly
reintroduces the memory traffic the tier exists to remove.  Likewise a
vector-math call without ``out=`` materialises a whole-array temporary
— the VML-style behaviour the fused tiers explicitly avoid.

Applies only to hot-tier files (membership from :mod:`repro.registry`
via :mod:`..hot`, levels ``advanced``/``parallel``), and only flags:

* array-allocating ``np.*`` calls **inside a loop** — per-call scratch
  allocated once outside the loop is the sanctioned pattern;
* ``np`` math ufuncs **inside a loop** without ``out=``;
* transcendental calls (``np.exp``/``np.log``, ``ndtr``, ``lib.exp``
  etc.) without ``out=`` anywhere in a hot function — their operands
  are arrays by construction;
* known ``out=``-capable repro kernels (``build_vectorized``) called
  inside a loop without ``out=``.

The plan layer (:mod:`repro.plan`) moved allocation wholesale to
compile time, and the rule knows it: :class:`~repro.plan.WorkspaceArena`
allocations (``arena.reserve``/``reserve_like``, and any ``np.*``
constructor nested in their arguments) are the *sanctioned* way to hold
scratch, wherever they appear — the arena hands out compile-time
buffers, so a reserve inside a per-slab loop is setup, not hot-path
traffic.  Likewise whole functions that exist to run once per plan or
per batch — planners and workspace builders (``plan_*``), plan
compilers (``compile_*``) and constructors (``__init__``) — are setup
phase, exempt from the per-iteration allocation contract.
"""

from __future__ import annotations

import ast

from ..rule import Rule, register

#: Names numpy is commonly bound to.
NP_NAMES = ("np", "numpy")

#: ``np.*`` calls that always return a freshly allocated array.
ALLOCATORS = frozenset({
    "empty", "zeros", "ones", "full", "empty_like", "zeros_like",
    "ones_like", "full_like", "arange", "linspace", "concatenate",
    "stack", "vstack", "hstack", "column_stack", "copy", "array",
    "tile", "repeat", "outer", "where", "cumsum", "cumprod",
})

#: ``np.*`` math ufuncs that accept ``out=`` (and allocate without it).
UFUNC_MATH = frozenset({
    "exp", "expm1", "log", "log1p", "log2", "log10", "sqrt", "square",
    "abs", "absolute", "maximum", "minimum", "add", "subtract",
    "multiply", "divide", "true_divide", "floor_divide", "power",
    "negative", "reciprocal", "tanh", "sin", "cos", "clip",
})

#: Vector-math ops on a ``lib``/``*_lib`` receiver (a math-library
#: object a caller injects).  The Black-Scholes bodies call ``np.exp``,
#: ``np.log`` and :func:`repro.vmath.ndtr.ndtr` directly: those are
#: checked anywhere in a hot function too, not only inside loops.
VMATH_OPS = frozenset({"exp", "log", "erf", "erfc", "cnd", "invcnd",
                       "pdf"})
NP_TRANSCENDENTALS = frozenset({"exp", "log"})

#: repro kernel entry points with native ``out=`` support.
OUT_CAPABLE = frozenset({"build_vectorized"})

#: :class:`repro.plan.WorkspaceArena` allocation methods.
ARENA_METHODS = frozenset({"reserve", "reserve_like"})

#: Functions that are plan-compile/setup phase by contract: they run
#: once per plan (or per batch), so allocation inside them is exactly
#: the hoisting the rule asks for.
SETUP_NAMES = frozenset({"__init__"})
SETUP_PREFIXES = ("compile_", "plan_")


def _has_out(call: ast.Call) -> bool:
    return any(kw.arg == "out" for kw in call.keywords)


def _is_arena_call(call: ast.Call) -> bool:
    f = call.func
    return (isinstance(f, ast.Attribute)
            and f.attr in ARENA_METHODS
            and isinstance(f.value, ast.Name)
            and (f.value.id == "arena" or f.value.id.endswith("_arena")))


def _in_setup_function(sf, node) -> bool:
    fn = sf.enclosing_function(node)
    return (fn is not None
            and (fn.name in SETUP_NAMES
                 or fn.name.startswith(SETUP_PREFIXES)))


def _arena_arg_nodes(tree) -> set:
    """Every AST node nested inside the arguments of an arena
    allocation call — an ``np.zeros`` feeding ``arena.reserve`` is the
    arena's problem, not a stray temporary."""
    out: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_arena_call(node):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                out.update(ast.walk(arg))
    return out


def _np_attr(call: ast.Call):
    f = call.func
    if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
            and f.value.id in NP_NAMES):
        return f.attr
    return None


def _vmath_receiver(call: ast.Call) -> bool:
    f = call.func
    if isinstance(f, ast.Name):
        return f.id == "ndtr"
    return (isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and ((f.attr in VMATH_OPS
                  and (f.value.id == "lib" or f.value.id.endswith("_lib")))
                 or (f.attr in NP_TRANSCENDENTALS
                     and f.value.id in NP_NAMES)))


@register
class HotLoopAllocation(Rule):
    code = "R001"
    name = "hot-loop allocation / missing out= in an optimized tier"
    rationale = (
        "Optimized tiers (advanced/parallel in the registry) promise a "
        "bounded working set: scratch is allocated once and every array "
        "op writes through out=. An allocation inside the hot loop — or "
        "a transcendental without out= — silently restores the per-op "
        "temporaries the tier was built to eliminate, and only a "
        "benchmark regression would notice. This protects the paper's "
        "Sec. IV fused-kernel contract (Table II / Listing 3)."
    )
    example_bad = (
        "for start in range(0, n, block):\n"
        "    d1 = np.exp(x[start:start + block])   # fresh temporary/iter"
    )
    example_fix = (
        "scratch = np.empty(block, dtype=DTYPE)    # hoisted, reused\n"
        "for start in range(0, n, block):\n"
        "    np.exp(x[start:start + block], out=scratch[:take])"
    )

    def check(self, sf, ctx):
        if not ctx.is_hot(sf):
            return
        arena_args = _arena_arg_nodes(sf.tree)
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            if (_is_arena_call(node) or node in arena_args
                    or _in_setup_function(sf, node)):
                continue
            attr = _np_attr(node)
            in_loop = sf.in_loop(node)
            if attr in ALLOCATORS and in_loop:
                yield self.finding(
                    sf, node,
                    f"np.{attr} allocates a fresh array on every "
                    f"iteration of a hot-tier loop; hoist the buffer "
                    f"out of the loop and reuse it")
            elif attr in UFUNC_MATH and in_loop and not _has_out(node):
                yield self.finding(
                    sf, node,
                    f"np.{attr} without out= materialises a temporary "
                    f"on every iteration of a hot-tier loop; write "
                    f"through a reused scratch array")
            elif _vmath_receiver(node) and not _has_out(node):
                yield self.finding(
                    sf, node,
                    f"transcendental {ast.unparse(node.func)} without out= "
                    f"allocates a whole-array temporary in a fused "
                    f"tier; pass out= to evaluate in place")
            elif (isinstance(node.func, ast.Name)
                  and node.func.id in OUT_CAPABLE
                  and in_loop and not _has_out(node)):
                yield self.finding(
                    sf, node,
                    f"{node.func.id} supports out= but is called "
                    f"without it inside a hot-tier loop, allocating a "
                    f"result block per iteration")

"""R002 — RNG discipline: seeded streams, planned slab randomness.

The repo's determinism contract (and the paper's Sec. IV-D3 per-thread
RNG refinement) requires every random draw to be reproducible from the
slab plan: global ``np.random`` state and unseeded generators make
results run-order-dependent, and a slab body that seeds or splits its
own stream ties the draws to the worker rather than the plan —
backends stop agreeing bit for bit.

Flags, anywhere in the tree:

* calls through the legacy global state (``np.random.rand`` & co.);
* ``default_rng()`` with no seed argument;

and inside slab bodies (functions dispatched via ``map_shm`` /
``compile_shm`` / ``compile_lanes``):

* ``.seed(...)`` calls and ``make_streams(...)`` stream splitting;
* ``.jumped_copy(...)`` — a sequential O(draws) skip paid on every run
  of the slab; the skip belongs to compile time, its state snapshot
  shipped through ``shared=``/``per_slab=``;
* RNG construction whose seed does not come from the plan (the body's
  ``consts`` dict, populated by the caller's ``consts=``/``per_slab=``).
"""

from __future__ import annotations

import ast

from ..rule import Rule, register
from ..slabs import module_namespace, slab_sites
from .allocation import NP_NAMES

#: Legacy global-state entry points (np.random.<name>).
GLOBAL_STATE = frozenset({
    "seed", "rand", "randn", "random", "random_sample", "ranf",
    "sample", "uniform", "normal", "randint", "random_integers",
    "standard_normal", "shuffle", "permutation", "choice", "get_state",
    "set_state", "exponential", "poisson", "lognormal",
})

#: Constructors that bind a seed at creation time.
RNG_CTORS = frozenset({
    "MT19937", "MT2203", "Philox", "SeedSequence", "RandomState",
    "default_rng", "ScalarMT19937",
})


def _is_np_random_attr(func) -> bool:
    """``np.random.<attr>`` / ``numpy.random.<attr>``."""
    return (isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in NP_NAMES)


def _is_default_rng(func) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "default_rng"
    return isinstance(func, ast.Attribute) and func.attr == "default_rng"


def _consts_derived(node, consts_param: str) -> bool:
    """True when the expression reads the slab plan's consts dict."""
    for n in ast.walk(node):
        if (isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)
                and n.value.id == consts_param):
            return True
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "get"
                and isinstance(n.func.value, ast.Name)
                and n.func.value.id == consts_param):
            return True
    return False


@register
class RngDiscipline(Rule):
    code = "R002"
    name = "RNG discipline (global state / unseeded / slab-local seeding)"
    rationale = (
        "Reproducibility across serial, thread and process backends "
        "requires all randomness to be a pure function of (seed, slab "
        "plan). Global np.random state is shared mutable state across "
        "the whole process; an unseeded default_rng() draws from the "
        "OS; and a slab body that seeds or splits streams itself makes "
        "draws depend on which worker ran the slab. Streams must be "
        "created by the caller and shipped through consts=/per_slab= "
        "(the paper's per-thread RNG, Sec. IV-D3, made deterministic "
        "per slab)."
    )
    example_bad = (
        "def _slab(arrays, consts, a, b, slab):\n"
        "    gen = np.random.default_rng()          # unseeded, global\n"
        "    streams = make_streams(4, seed=slab)   # split in the body"
    )
    example_fix = (
        "streams = make_streams(n_slabs, seed=seed)  # in the caller\n"
        "executor.map_shm(_slab, n, ...,\n"
        "                 per_slab=lambda a, b, i: {'stream': streams[i]})\n"
        "def _slab(arrays, consts, a, b, slab):\n"
        "    gen = NormalGenerator(consts['stream'])  # from the plan"
    )

    def check(self, sf, ctx):
        # -- tree-wide discipline -------------------------------------
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            if (_is_np_random_attr(node.func)
                    and node.func.attr in GLOBAL_STATE):
                yield self.finding(
                    sf, node,
                    f"np.random.{node.func.attr} uses the process-global "
                    f"RNG state; construct a seeded generator instead")
            elif (_is_default_rng(node.func)
                  and not node.args and not node.keywords):
                yield self.finding(
                    sf, node,
                    "default_rng() without a seed draws OS entropy; "
                    "results become unreproducible")
        # -- slab-body discipline -------------------------------------
        defs, _ = module_namespace(sf.tree)
        bodies = {s.fn_name for s in slab_sites(sf.tree)
                  if s.fn_name in defs}
        for name in sorted(bodies):
            yield from self._check_body(sf, defs[name])

    def _check_body(self, sf, fndef):
        args = fndef.args
        params = [a.arg for a in args.posonlyargs + args.args]
        consts_param = params[1] if len(params) > 1 else "consts"
        for node in ast.walk(fndef):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "seed":
                yield self.finding(
                    sf, node,
                    f"slab body {fndef.name} reseeds a generator; "
                    f"streams must come from the slab plan "
                    f"(consts=/per_slab=)")
            elif (isinstance(func, ast.Attribute)
                  and func.attr == "jumped_copy"):
                yield self.finding(
                    sf, node,
                    f"slab body {fndef.name} skips ahead with "
                    f"jumped_copy on every run; walk the stream once at "
                    f"compile time and ship the state snapshots through "
                    f"shared=/per_slab=")
            elif (isinstance(func, ast.Name)
                  and func.id == "make_streams"):
                yield self.finding(
                    sf, node,
                    f"slab body {fndef.name} splits streams itself; "
                    f"make_streams belongs in the caller, indexed by "
                    f"slab via per_slab=")
            elif ((isinstance(func, ast.Name) and func.id in RNG_CTORS)
                  or _is_default_rng(func)):
                exprs = list(node.args) + [k.value for k in node.keywords]
                if not any(_consts_derived(e, consts_param)
                           for e in exprs):
                    yield self.finding(
                        sf, node,
                        f"slab body {fndef.name} constructs an RNG from "
                        f"a seed that does not come from the slab plan; "
                        f"ship the seed or stream through "
                        f"consts=/per_slab=")

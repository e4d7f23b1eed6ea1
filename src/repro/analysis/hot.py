"""Hot-tier discovery: which source files hold optimized-tier kernels.

Rules R001 (hot-loop allocation) and R004 (dtype discipline) only apply
to code on the optimized rungs of the ladder — naive tiers are *meant*
to allocate temporaries; that contrast is the Ninja gap.  Membership is
discovered by importing :mod:`repro.registry` and resolving the
registered implementations, **not** by filename convention:

* every :class:`~repro.registry.KernelImpl` whose level is ``ADVANCED``
  or ``PARALLEL`` seeds the hot set with the module its ``fn`` is
  defined in (usually the kernel's ``tiers.py`` adapter module);
* each global function the adapter's code object references (one call
  hop — ``price_parallel``, ``solve_batch``, …) adds *its* defining
  module, which is how the actual kernel modules
  (``black_scholes/parallel.py``, ``crank_nicolson/solver.py``, …)
  join the set.

The result is module-granular: a hot module's helper functions
(``_price_slab`` and friends) are hot too, which is exactly the code
the contracts exist for.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path


def _module_file(module_name: str):
    mod = sys.modules.get(module_name)
    path = getattr(mod, "__file__", None)
    return Path(path).resolve() if path else None


def _code_names(code):
    """``co_names`` of ``code`` and of every nested code object —
    comprehensions and lambdas compile to their own code objects, and
    the planners allocate per-slab workspaces inside exactly those."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _code_names(const)
    return names


def _one_hop_callees(fn):
    """Global functions referenced by ``fn``'s code object, resolved in
    its defining module — the adapters' direct kernel entry points."""
    mod = sys.modules.get(fn.__module__)
    if mod is None:
        return
    code = getattr(fn, "__code__", None)
    if code is None:
        return
    for name in sorted(_code_names(code)):
        obj = getattr(mod, name, None)
        if (isinstance(obj, types.FunctionType)
                and obj.__module__
                and obj.__module__.split(".")[0] == "repro"):
            yield obj


def discover_hot_files() -> dict:
    """``{absolute Path: sorted tier labels}`` of every hot-tier file.

    Imports the registry (and through it every kernel's tier module);
    safe to call repeatedly — registration is idempotent at import
    time.
    """
    from ..kernels.levels import OptLevel
    from .. import registry

    hot_levels = (OptLevel.ADVANCED, OptLevel.PARALLEL)
    out: dict = {}

    def add(module_name: str, label: str) -> None:
        path = _module_file(module_name)
        if path is None:
            return
        out.setdefault(path, set()).add(label)

    for impl in registry.impls():
        if impl.level not in hot_levels:
            continue
        # The planner path is the optimized path too: a plan's runner
        # closes over the same hot code, and its compile module (the
        # ``planned.py`` companions) holds the out=-wired sweeps.
        add(impl.fn.__module__, impl.label)
        for callee in _one_hop_callees(impl.fn):
            add(callee.__module__, impl.label)
        if impl.planner is not None:
            add(impl.planner.__module__, impl.label)
            for callee in _one_hop_callees(impl.planner):
                add(callee.__module__, impl.label)
                # Planners are thin adapters over compile_* functions;
                # one more hop through those reaches the planned-sweep
                # modules they compile against (``kernels/*/planned.py``).
                if not callee.__name__.startswith("compile_"):
                    continue
                for deep in _one_hop_callees(callee):
                    add(deep.__module__, impl.label)
    return {path: tuple(sorted(labels)) for path, labels in out.items()}

"""Thread/async execution-context classification.

Answers, statically and per module, *which execution context can this
function run on?* — the question every concurrency rule (R006/R007/
R009) starts from.  A context is a string tag:

``event-loop``
    The asyncio event loop: every ``async def`` plus any sync function
    registered as a loop callback (``call_soon``/``call_later``/
    ``call_at``/``add_done_callback``) or reached by direct call from
    one.
``thread:<root>``
    A dedicated thread whose root target is ``<root>`` — seeded from
    ``threading.Thread(target=...)``, ``pool.submit(...)`` on
    executor-ish receivers, and ``loop.run_in_executor(...)``.
``worker:<root>``
    A daemon/process worker body — seeded from
    ``Process(target=...)`` (the standing daemon's worker loop) and
    from slab bodies handed to ``map_shm``/``compile_shm``/
    ``compile_lanes`` (the same hot-set roots the registry-driven
    discovery tracks).

A function with no tag runs in *arbitrary caller* context — the rules
treat that as unclassified rather than as a distinct context, so
library code callable from anywhere never trips a cross-context rule
on its own.

Tags propagate along **direct call edges only** (``helper(...)`` or
``self.helper(...)`` resolved within the module) into sync functions,
plus from an enclosing function into its nested sync ``def``s.
Passing a function as a *value* deliberately creates no edge — a
callback handed to ``run_in_executor`` gets the thread tag from the
seed table, not the event-loop tag of the function that registered it.

Spawn multiplicity is tracked per tag: a target spawned from more than
one call site, or from a call site inside a loop, is *multi* — R007
uses this to reject "one producer function" arguments when that
function runs on several threads at once.
"""

from __future__ import annotations

import ast

from .slabs import SLAB_METHODS

#: Tag for code running on the asyncio event loop.
EVENT_LOOP = "event-loop"

#: Receiver-name fragments that mark a ``.submit()`` as a thread-pool
#: dispatch (vs. e.g. a ring named ``submit``).
_POOLISH = ("pool", "executor")

#: Loop-callback registrars: the callback is the first positional arg.
_LOOP_CB_FIRST = {"call_soon", "call_soon_threadsafe", "add_done_callback"}

#: Loop-callback registrars: (delay/when, callback, ...).
_LOOP_CB_SECOND = {"call_later", "call_at"}

#: Slab dispatch entry points: the body runs on pool/daemon workers.
_SLAB_DISPATCH = frozenset(SLAB_METHODS)


def call_name(func) -> str | None:
    """Terminal name of a call target: ``f`` for ``f(...)``, ``m``
    for ``obj.a.m(...)``; None for computed targets."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def receiver_base(func) -> str | None:
    """Base identifier a method call is invoked on: ``_pool`` for
    ``self._pool.submit``, ``time`` for ``time.sleep``, ``_submit``
    for ``self._submit[w].try_push``; None for bare-name calls."""
    if not isinstance(func, ast.Attribute):
        return None
    cur = func.value
    while True:
        if isinstance(cur, ast.Subscript):
            cur = cur.value
        elif isinstance(cur, ast.Attribute):
            if (isinstance(cur.value, ast.Name)
                    and cur.value.id in ("self", "cls")):
                return cur.attr
            cur = cur.value
        elif isinstance(cur, ast.Name):
            return cur.id
        elif isinstance(cur, ast.Call):
            return call_name(cur.func)
        else:
            return None


class ContextMap:
    """Per-module map from function defs to execution-context tags."""

    def __init__(self, sf):
        self.sf = sf
        self._module_defs: dict = {}       # name -> top-level def
        self._methods: dict = {}           # (ClassDef, name) -> def
        for node in sf.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._module_defs[node.name] = node
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        self._methods[(node, item.name)] = item
        self._tags: dict = {}              # def -> set of tags
        self._spawns: dict = {}            # tag -> spawn-site count
        self._seed()
        self._propagate()

    # -- queries -------------------------------------------------------
    def tags(self, fndef) -> frozenset:
        """Context tags of one function def (empty = arbitrary caller)."""
        return frozenset(self._tags.get(fndef, ()))

    def contexts(self, node) -> frozenset:
        """Context tags of the innermost function enclosing ``node``
        (empty at module level or in unclassified functions)."""
        fn = self.sf.enclosing_function(node)
        return self.tags(fn) if fn is not None else frozenset()

    def is_multi(self, tag: str) -> bool:
        """True when the tag's root is spawned more than once (several
        call sites, or one call site inside a loop) — i.e. the "one
        context" is really N concurrent copies."""
        return self._spawns.get(tag, 0) > 1

    def classified(self, node) -> bool:
        return bool(self.contexts(node))

    # -- construction --------------------------------------------------
    def _enclosing_class(self, node):
        for anc in self.sf.ancestors(node):
            if isinstance(anc, ast.ClassDef):
                return anc
        return None

    def _resolve(self, expr, at):
        """Resolve a callback expression to a same-module def: a bare
        name, ``self.method``/``cls.method``, or ``partial(f, ...)``."""
        if (isinstance(expr, ast.Call) and expr.args
                and call_name(expr.func) == "partial"):
            return self._resolve(expr.args[0], at)
        if isinstance(expr, ast.Name):
            return self._module_defs.get(expr.id)
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id in ("self", "cls")):
            cls = self._enclosing_class(at)
            if cls is not None:
                return self._methods.get((cls, expr.attr))
        return None

    def _add(self, fndef, tag: str) -> None:
        self._tags.setdefault(fndef, set()).add(tag)

    def _seed(self) -> None:
        for node in ast.walk(self.sf.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                self._add(node, EVENT_LOOP)
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node.func)
            base = receiver_base(node.func)
            target, kind = None, None
            if name in ("Thread", "Process"):
                for kw in node.keywords:
                    if kw.arg == "target":
                        target = kw.value
                kind = "thread" if name == "Thread" else "worker"
            elif (name == "submit" and base is not None
                    and any(s in base.lower() for s in _POOLISH)
                    and node.args):
                target, kind = node.args[0], "thread"
            elif name == "run_in_executor" and len(node.args) >= 2:
                target, kind = node.args[1], "thread"
            elif name in _LOOP_CB_FIRST and node.args:
                target, kind = node.args[0], "loop"
            elif name in _LOOP_CB_SECOND and len(node.args) >= 2:
                target, kind = node.args[1], "loop"
            elif name in _SLAB_DISPATCH and node.args:
                target, kind = node.args[0], "worker"
            if target is None:
                continue
            fn = self._resolve(target, node)
            if fn is None:
                continue
            if kind == "loop":
                self._add(fn, EVENT_LOOP)
                continue
            tag = f"{kind}:{fn.name}"
            self._add(fn, tag)
            # One spawn site inside a loop already means N copies.
            self._spawns[tag] = (self._spawns.get(tag, 0)
                                 + (2 if self.sf.in_loop(node) else 1))

    def _edges(self) -> dict:
        """Direct call edges (and nesting edges) into *sync* defs."""
        edges: dict = {}
        for node in ast.walk(self.sf.tree):
            if isinstance(node, ast.FunctionDef):
                parent = self.sf.enclosing_function(node)
                if parent is not None:
                    edges.setdefault(parent, set()).add(node)
            if not isinstance(node, ast.Call):
                continue
            caller = self.sf.enclosing_function(node)
            if caller is None:
                continue
            callee = self._resolve(node.func, node)
            if isinstance(callee, ast.FunctionDef) and callee is not caller:
                edges.setdefault(caller, set()).add(callee)
        return edges

    def _propagate(self) -> None:
        edges = self._edges()
        work = [fn for fn in self._tags]
        while work:
            fn = work.pop()
            tags = self._tags.get(fn, set())
            for callee in edges.get(fn, ()):
                have = self._tags.setdefault(callee, set())
                if not tags <= have:
                    have |= tags
                    work.append(callee)


def context_map(sf) -> ContextMap:
    """The (memoized) :class:`ContextMap` of one SourceFile."""
    cm = getattr(sf, "_context_map", None)
    if cm is None:
        cm = ContextMap(sf)
        sf._context_map = cm
    return cm

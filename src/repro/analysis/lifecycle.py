"""Acquire/release pairing analysis over try/finally and with blocks.

The runtime grew several paired lifecycles whose leak mode is silent:
a daemon ``pin`` holds worker state and shm pin-cache slots until
``unpin``; a ring/arena ``attach`` holds an shm mapping until
``close``/``detach``; ``create`` holds the segment itself; ``start``
holds processes.  This module finds acquire call sites and classifies
how the acquired resource is held (*custody*), so R008 can demand that
every acquire dominates a release on all paths — including the
exception path.

Custody classes
---------------
``with``      acquired as a context-manager expression — safe.
``escape``    the resource (or the variable holding it) leaves the
              frame: returned, yielded, stored into a container or
              another object's attribute, aliased, or passed to some
              other call.  Ownership moved; the holder is accountable.
``self``      stored on ``self.<attr>`` — the class owns it; safe only
              if the class body contains a paired release call
              somewhere (a teardown path exists).
``local``     held in a local variable — safe only if a paired release
              on that variable sits in a ``finally:`` block.
``receiver``  the call's result is discarded and the receiver variable
              *is* the resource (``proc.start()``) — judged like
              ``local`` on the receiver.
``discard``   the result is dropped with no trackable receiver — an
              immediate leak.

The pairing table maps acquire method names to accepted release names;
bare-name calls match on the stripped/suffixed form too, so
``_untracked_attach(...)`` pairs with ``attach``.  Constructor
acquisition (``SharedMemory(...)``, ``ThreadPoolExecutor(...)``) is
deliberately out of scope: pairing is keyed on the *verb* call sites
the repro lifecycles actually use.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .context import call_name

#: acquire verb -> accepted release verbs.
PAIRS = {
    "pin": ("unpin",),
    "attach": ("detach", "close"),
    "create": ("close", "unlink"),
    "start": ("stop", "close", "shutdown", "terminate", "join"),
    "acquire": ("release",),
    "compile_shm": ("close",),
    "compile_lanes": ("close",),
}

#: Verdicts check() can attach to an acquire site.
OK = "ok"
LEAK = "leak"               # no release on any path
UNSAFE = "unsafe"           # release only on the fall-through path
NO_TEARDOWN = "no-teardown"  # self-stored, class has no release path


@dataclass
class Acquire:
    """One acquire call site and its custody classification."""

    node: object                 # the ast.Call
    kind: str                    # PAIRS key
    fn: object                   # enclosing function def
    custody: str = ""            # with/escape/self/local/receiver/discard
    var: str | None = None       # local/receiver variable, or self attr
    verdict: str = OK
    release: object = None       # a matched release call, if any


def _verb_matches(name: str | None, verbs) -> bool:
    if not name:
        return False
    stripped = name.lstrip("_")
    return any(stripped == v or stripped.endswith("_" + v) for v in verbs)


def _receiver_var(func) -> str | None:
    """The plain-Name receiver of an attribute call, if any."""
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id not in ("self", "cls"):
            return func.value.id
    return None


def _names_in(expr, var: str) -> bool:
    return any(isinstance(n, ast.Name) and n.id == var
               for n in ast.walk(expr))


def _in_finalbody(sf, node) -> bool:
    child = node
    for anc in sf.ancestors(node):
        if isinstance(anc, ast.Try) and child in anc.finalbody:
            return True
        child = anc
    return False


def _classify_custody(sf, node) -> tuple:
    """(custody, var) for one acquire call node."""
    prev = node
    for anc in sf.ancestors(node):
        if isinstance(anc, ast.withitem):
            return ("with", None)
        if isinstance(anc, ast.Call) and prev is not anc.func:
            return ("escape", None)      # fed straight into another call
        if isinstance(anc, (ast.Return, ast.Yield, ast.YieldFrom)):
            return ("escape", None)
        if isinstance(anc, ast.Assign):
            t = anc.targets[0] if len(anc.targets) == 1 else None
            if isinstance(t, ast.Name):
                return ("local", t.id)
            if isinstance(t, ast.Attribute):
                if (isinstance(t.value, ast.Name)
                        and t.value.id == "self"):
                    return ("self", t.attr)
                return ("escape", None)  # stored on another object
            return ("escape", None)      # subscript/tuple target
        if isinstance(anc, ast.AnnAssign):
            if isinstance(anc.target, ast.Name):
                return ("local", anc.target.id)
            return ("escape", None)
        if isinstance(anc, ast.Expr):
            recv = _receiver_var(node.func)
            if recv is not None:
                return ("receiver", recv)
            if (isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Attribute)
                    and isinstance(node.func.value.value, ast.Name)
                    and node.func.value.value.id == "self"):
                return ("self", node.func.value.attr)
            return ("discard", None)
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.Lambda)):
            break
        prev = anc
    return ("escape", None)   # comprehension/starred/odd shapes: punt


def _release_sites(fndef, var: str, releases) -> list:
    """Calls in ``fndef`` that release ``var``: a paired verb invoked
    on it, or taking it as an argument (``daemon.unpin(plan_id)``)."""
    sites = []
    for node in ast.walk(fndef):
        if not isinstance(node, ast.Call):
            continue
        if not _verb_matches(call_name(node.func), releases):
            continue
        if _receiver_var(node.func) == var:
            sites.append(node)
            continue
        if any(_names_in(a, var) for a in node.args) or any(
                _names_in(kw.value, var) for kw in node.keywords):
            sites.append(node)
    return sites


def _var_escapes(fndef, var: str, release_nodes) -> bool:
    """The local leaves the frame: returned/yielded, aliased, stored
    into a container or attribute, passed to a non-release call, or
    captured by a nested def/lambda (closures outlive the frame — the
    kernel planners hand ``compile_shm`` handles to returned runners
    this way, transferring custody to the plan layer)."""
    skip = set(release_nodes)
    for node in ast.walk(fndef):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda))
                and node is not fndef and _names_in(node, var)):
            return True
        if isinstance(node, ast.Call) and node not in skip:
            for a in list(node.args) + [kw.value for kw in node.keywords]:
                if _names_in(a, var):
                    return True
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            if node.value is not None and _names_in(node.value, var):
                return True
        elif isinstance(node, ast.Assign):
            if not _names_in(node.value, var):
                continue
            for t in node.targets:
                if isinstance(t, (ast.Attribute, ast.Subscript, ast.Name)):
                    if not (isinstance(t, ast.Name) and t.id == var):
                        return True
    return False


def _class_has_release(cls, releases) -> bool:
    for node in ast.walk(cls):
        if isinstance(node, ast.Call) and _verb_matches(
                call_name(node.func), releases):
            return True
    return False


def acquire_sites(sf) -> list:
    """Every classified acquire site in the module, verdicts attached."""
    out = []
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node.func)
        kind = next((k for k in PAIRS if _verb_matches(name, (k,))), None)
        if kind is None:
            continue
        if isinstance(node.func, ast.Attribute):
            v = node.func.value
            if isinstance(v, ast.Name) and v.id in ("self", "cls"):
                continue      # delegation to the object's own lifecycle
        fn = sf.enclosing_function(node)
        if fn is None:
            continue          # module-level scripts are out of scope
        acq = Acquire(node=node, kind=kind, fn=fn)
        acq.custody, acq.var = _classify_custody(sf, node)
        _judge(sf, acq)
        out.append(acq)
    return out


def _judge(sf, acq: Acquire) -> None:
    releases = PAIRS[acq.kind]
    if acq.custody in ("with", "escape"):
        acq.verdict = OK
    elif acq.custody == "discard":
        acq.verdict = LEAK
    elif acq.custody == "self":
        cls = next((a for a in sf.ancestors(acq.node)
                    if isinstance(a, ast.ClassDef)), None)
        acq.verdict = (OK if cls is not None
                       and _class_has_release(cls, releases)
                       else NO_TEARDOWN)
    else:                     # local / receiver
        sites = _release_sites(acq.fn, acq.var, releases)
        if any(_in_finalbody(sf, s) for s in sites):
            acq.verdict = OK
            acq.release = sites[0]
        elif _var_escapes(acq.fn, acq.var, sites):
            acq.verdict = OK
        elif sites:
            acq.verdict = UNSAFE
            acq.release = sites[0]
        else:
            acq.verdict = LEAK

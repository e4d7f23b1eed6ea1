"""AST extraction of slab dispatch sites (``map_shm`` one-shots and
the ``compile_shm``/``compile_lanes`` declarations that serve).

Shared by the RNG-discipline (R002), picklability (R003) and
write-safety (R005) rules: finds every structured slab dispatch in a
module, recovers the literal ``sliced=``/``shared=``/``writes=``/
``consts=``/``outputs=`` declarations, resolves the slab-body function,
and performs the small dataflow analysis that determines which
dispatched arrays a slab body actually mutates.

The dataflow is deliberately shallow — direct writes in the body plus
one call hop into same-module helpers — matching how the kernels are
written (a module-level task function that either writes its views
directly or forwards them to one fused helper).  Anything deeper is
out of scope for a linter and belongs to the runtime checker in
:mod:`repro.parallel.safety`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

#: SlabExecutor dispatch methods that take a slab-body function and
#: the ``sliced=``/``writes=``/``consts=`` declaration: the one-shot and
#: the two compilers every registered slab tier declares itself through.
SLAB_METHODS = ("map_shm", "compile_shm", "compile_lanes")


@dataclass
class SlabSite:
    """One ``executor.map_shm(...)``/``compile_shm(...)``/
    ``compile_lanes(...)`` call site."""

    call: ast.Call
    method: str                       # one of SLAB_METHODS
    fn_expr: ast.expr                 # the slab-body argument
    fn_name: str | None               # its name when it is a bare Name
    sliced: dict | None               # {key: value expr} | None if dynamic
    shared: dict | None
    writes: tuple | None              # literal names | None if dynamic
    consts: tuple | None              # literal const keys | None
    has_per_slab: bool = False
    #: Literal multi-output schema {logical: (write array, ...)} — empty
    #: when the site declares no outputs= (single-output legacy site),
    #: None when the schema is present but not a literal (dynamic).
    outputs: dict | None = None


def _literal_dict(node) -> dict | None:
    if not isinstance(node, ast.Dict):
        return None
    out = {}
    for k, v in zip(node.keys, node.values):
        if not (isinstance(k, ast.Constant) and isinstance(k.value, str)):
            return None
        out[k.value] = v
    return out


def _literal_schema(node) -> dict | None:
    """``outputs=`` as a literal ``{logical: (array, ...)}`` schema.

    A logical output may be backed by one array (a bare string value)
    or several (a tuple/list of strings); any non-literal key or value
    makes the whole schema dynamic (``None``) and the static checks
    stand down in favour of the runtime validator.
    """
    if not isinstance(node, ast.Dict):
        return None
    out = {}
    for k, v in zip(node.keys, node.values):
        if not (isinstance(k, ast.Constant) and isinstance(k.value, str)):
            return None
        if isinstance(v, ast.Constant) and isinstance(v.value, str):
            names: tuple | None = (v.value,)
        else:
            names = _literal_names(v)
        if names is None:
            return None
        out[k.value] = names
    return out


def _literal_names(node) -> tuple | None:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        elts = node.elts
    else:
        return None
    names = []
    for e in elts:
        if not (isinstance(e, ast.Constant) and isinstance(e.value, str)):
            return None
        names.append(e.value)
    return tuple(names)


def slab_sites(tree) -> list:
    """Every slab dispatch site in ``tree``."""
    sites = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SLAB_METHODS
                and node.args):
            continue
        kw = {k.arg: k.value for k in node.keywords if k.arg}
        fn_expr = node.args[0]
        # An absent keyword is the empty literal; a keyword that is
        # present but not a literal is None ("dynamic" — the static
        # checks stand down and the runtime checker owns the site).
        consts = (_literal_dict(kw["consts"]) if "consts" in kw else {})
        sites.append(SlabSite(
            call=node,
            method=node.func.attr,
            fn_expr=fn_expr,
            fn_name=fn_expr.id if isinstance(fn_expr, ast.Name) else None,
            sliced=(_literal_dict(kw["sliced"]) if "sliced" in kw else {}),
            shared=(_literal_dict(kw["shared"]) if "shared" in kw else {}),
            writes=(_literal_names(kw["writes"]) if "writes" in kw
                    else ()),
            consts=tuple(consts) if consts is not None else None,
            has_per_slab="per_slab" in kw,
            outputs=(_literal_schema(kw["outputs"]) if "outputs" in kw
                     else {}),
        ))
    return sites


# ----------------------------------------------------------------------
# Module-level namespace (for picklability and body resolution)
# ----------------------------------------------------------------------

def module_namespace(tree) -> tuple:
    """``(defs, importable)`` at module top level: name → FunctionDef,
    and the set of names bound by imports or def-aliasing assignments."""
    defs: dict = {}
    importable: set = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Import):
            for alias in node.names:
                importable.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                importable.add(alias.asname or alias.name)
        elif isinstance(node, ast.Assign):
            # `task = _impl` aliases a module-level def by reference.
            if (isinstance(node.value, ast.Name)
                    and all(isinstance(t, ast.Name) for t in node.targets)):
                for t in node.targets:
                    importable.add(t.id)
    return defs, importable


def local_names(fn) -> set:
    """Names bound inside ``fn`` (assignments, nested defs, lambdas) —
    a slab body resolved to one of these is closure-captured."""
    out: set = set()
    for node in ast.walk(fn):
        if node is fn:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        out.add(n.id)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(node.target, ast.Name):
                out.add(node.target.id)
    return out


# ----------------------------------------------------------------------
# Slab-body write dataflow
# ----------------------------------------------------------------------

def _arrays_key(node, arrays_param: str):
    """``arrays["x"]`` → ``"x"`` (direct subscript of the arrays dict)."""
    if (isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == arrays_param
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)):
        return node.slice.value
    return None


def _bindings(fn, arrays_param: str) -> dict:
    """Local name → arrays key for ``x = arrays["x"]`` style bindings
    (tuple unpacking included)."""
    bound: dict = {}
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                key = _arrays_key(node.value, arrays_param)
                if key is not None:
                    bound[target.id] = key
            elif (isinstance(target, ast.Tuple)
                  and isinstance(node.value, ast.Tuple)
                  and len(target.elts) == len(node.value.elts)):
                for t, v in zip(target.elts, node.value.elts):
                    key = _arrays_key(v, arrays_param)
                    if isinstance(t, ast.Name) and key is not None:
                        bound[t.id] = key
    return bound


def _resolve(node, arrays_param: str, bound: dict):
    """Array key an expression refers to, or None."""
    key = _arrays_key(node, arrays_param)
    if key is not None:
        return key
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    return None


def _target_key(target, arrays_param: str, bound: dict):
    """Array key a store-target mutates: peels subscript layers so both
    ``arrays["out"][:] = …`` and ``out[j] = …`` resolve."""
    node = target
    while isinstance(node, ast.Subscript):
        key = _arrays_key(node, arrays_param)
        if key is not None and node is not target:
            return key       # arrays["out"][...] = …
        node = node.value
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    return None


def _param_written(fndef, param: str) -> bool:
    """Does ``fndef`` write through its parameter ``param`` (``out=``
    usage, subscript store, or in-place augmented assignment)?"""
    for node in ast.walk(fndef):
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if (kw.arg == "out" and isinstance(kw.value, ast.Name)
                        and kw.value.id == param):
                    return True
        elif isinstance(node, ast.AugAssign):
            t = node.target
            while isinstance(t, ast.Subscript):
                t = t.value
            if isinstance(t, ast.Name) and t.id == param:
                return True
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                t = target
                seen_subscript = isinstance(t, ast.Subscript)
                while isinstance(t, ast.Subscript):
                    t = t.value
                if (seen_subscript and isinstance(t, ast.Name)
                        and t.id == param):
                    return True
    return False


def _param_names(fndef) -> list:
    args = fndef.args
    return [a.arg for a in args.posonlyargs + args.args]


def written_arrays(fndef, module_defs: dict) -> dict:
    """``{array key: node}`` of every dispatched array ``fndef`` mutates.

    Detects direct writes (subscript stores, augmented assignments and
    ``out=`` targets on names bound from the arrays dict) plus one call
    hop: an ``arrays[...]`` value passed to a same-module function that
    writes the corresponding parameter.
    """
    params = _param_names(fndef)
    arrays_param = params[0] if params else "arrays"
    bound = _bindings(fndef, arrays_param)
    written: dict = {}

    def note(key, node):
        if key is not None and key not in written:
            written[key] = node

    for node in ast.walk(fndef):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                elts = (target.elts if isinstance(target, ast.Tuple)
                        else [target])
                for t in elts:
                    if isinstance(t, ast.Subscript):
                        note(_target_key(t, arrays_param, bound), node)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Subscript):
                note(_target_key(node.target, arrays_param, bound), node)
            elif isinstance(node.target, ast.Name):
                note(bound.get(node.target.id), node)
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg == "out":
                    note(_resolve(kw.value, arrays_param, bound), node)
            callee = (module_defs.get(node.func.id)
                      if isinstance(node.func, ast.Name) else None)
            if callee is not None and callee is not fndef:
                callee_params = _param_names(callee)
                pairs = list(zip(node.args, callee_params))
                pairs += [(kw.value, kw.arg) for kw in node.keywords
                          if kw.arg in callee_params]
                for arg, pname in pairs:
                    key = _resolve(arg, arrays_param, bound)
                    if key is not None and _param_written(callee, pname):
                        note(key, node)
    return written

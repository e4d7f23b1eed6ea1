"""Deferred package exports (PEP 562).

A package ``__init__`` declares which submodule each public name lives
in; the submodule is imported the first time the name is read, and the
value is then cached on the package, so later reads are plain attribute
hits.  ``dir(package)`` lists every declared name before any of them
has loaded.  This keeps ``import repro`` and each subpackage import
down to the modules a process actually uses: the gateway never loads
the performance models, the tracing vector machine or the benches.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict, submodules=()):
    """PEP 562 hooks for ``package``.

    ``exports`` maps a relative module name (``".advanced"``) to the
    names it provides; ``"alias=attr"`` exports ``attr`` under
    ``alias``.  ``submodules`` are names resolved by importing
    ``package.<name>`` itself.  Returns ``(__getattr__, __dir__,
    __all__)`` for the package to bind at module level.

    A name exported from a submodule of the same name (``payoff`` from
    ``.payoff``) is bound at once: importing that submodule later would
    rebind the package attribute to the module.
    """
    where = {}
    for module, names in exports.items():
        for spec in names:
            alias, _, attr = spec.partition("=")
            where[alias] = (module, attr or alias)
    for name in submodules:
        where[name] = ("." + name, None)
    public = list(where)
    for name, (module, attr) in where.items():
        if module == "." + name and attr is not None:
            setattr(sys.modules[package], name, getattr(
                importlib.import_module(module, package), attr))

    def __getattr__(name: str):
        try:
            module, attr = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = importlib.import_module(module, package)
        if attr is not None:
            value = getattr(value, attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(public))

    return __getattr__, __dir__, public

"""Parsed source files and ``# repro-lint: disable=CODE`` suppressions.

A :class:`SourceFile` owns one module's text, its AST, a parent map
(AST nodes know their ancestors, which the rules use for loop- and
function-context questions) and the suppression table.

Suppression syntax
------------------
A trailing or standalone comment::

    x = np.zeros(n)            # repro-lint: disable=R001
    # repro-lint: disable=R001,R004
    def hot_helper(...):       # suppressed for the whole function body

* On an ordinary line it silences the listed codes for that line.
* On a ``def`` line — or on the comment line directly above a ``def``
  (decorators included) — it silences them for the entire function.
* ``disable=all`` silences every rule for the scope.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from ..errors import AnalysisError

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+?)\s*(?:#|$)")

#: Directories never linted.
SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", "build", "dist"}


def iter_python_files(paths) -> list:
    """Every ``*.py`` under ``paths`` (files or directories), sorted."""
    out = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if not any(part in SKIP_DIRS or part.startswith(".")
                           for part in f.parts):
                    out.append(f)
        elif p.suffix == ".py":
            out.append(p)
        else:
            raise AnalysisError(f"not a Python file or directory: {p}")
    return out


class SourceFile:
    """One parsed module plus its lint metadata."""

    def __init__(self, path, text: str, root=None):
        self.path = Path(path)
        root = Path(root) if root is not None else None
        try:
            self.rel = (str(self.path.relative_to(root))
                        if root is not None else str(self.path))
        except ValueError:
            self.rel = str(self.path)
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=str(path))
        self._parents: dict = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self._suppressed = self._build_suppressions()

    @classmethod
    def read(cls, path, root=None) -> "SourceFile":
        return cls(path, Path(path).read_text(encoding="utf-8"), root=root)

    # -- AST context ---------------------------------------------------
    def ancestors(self, node):
        cur = self._parents.get(node)
        while cur is not None:
            yield cur
            cur = self._parents.get(cur)

    def enclosing_function(self, node):
        """Innermost FunctionDef/AsyncFunctionDef containing ``node``."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def symbol(self, node) -> str:
        fn = self.enclosing_function(node)
        return fn.name if fn is not None else "<module>"

    def in_loop(self, node) -> bool:
        """True when ``node`` sits inside a for/while loop of its own
        enclosing function (loops outside the function don't count)."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.For, ast.AsyncFor, ast.While)):
                return True
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                return False
        return False

    def snippet(self, node) -> str:
        try:
            return self.lines[node.lineno - 1].strip()
        except IndexError:
            return ""

    # -- suppressions --------------------------------------------------
    def _line_codes(self) -> dict:
        codes: dict = {}
        for i, line in enumerate(self.lines, start=1):
            m = _SUPPRESS_RE.search(line)
            if m:
                codes[i] = {c.strip().upper()
                            for c in m.group(1).split(",") if c.strip()}
        return codes

    def _build_suppressions(self) -> dict:
        per_line = self._line_codes()
        suppressed = dict(per_line)
        for node in ast.walk(self.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            head_lines = set(range(first - 1, node.lineno + 1))
            codes = set()
            for ln in head_lines:
                codes |= per_line.get(ln, set())
            if codes:
                for ln in range(node.lineno, (node.end_lineno or
                                              node.lineno) + 1):
                    suppressed.setdefault(ln, set())
                    suppressed[ln] = suppressed[ln] | codes
        return suppressed

    def is_suppressed(self, code: str, line: int) -> bool:
        codes = self._suppressed.get(line)
        return bool(codes) and (code.upper() in codes or "ALL" in codes)

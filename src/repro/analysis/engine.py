"""The lint driver: files × rules → findings.

:class:`Linter` collects Python files, parses each into a
:class:`~.source.SourceFile`, runs every registered rule under one
:class:`LintContext` (which carries the registry-discovered hot-tier
map), applies ``# repro-lint: disable=`` suppressions, and returns a
:class:`LintResult` with stable fingerprints assigned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..errors import AnalysisError
from .findings import Finding, assign_occurrences
from .rule import all_rules
from .source import SourceFile, iter_python_files


class LintContext:
    """Cross-file state the rules consult."""

    def __init__(self, root, hot_files: dict | None = None,
                 assume_hot: bool = False):
        self.root = Path(root)
        self.hot_files = {Path(p).resolve(): tuple(labels)
                          for p, labels in (hot_files or {}).items()}
        #: Test hook: treat every file as hot-tier (fixture linting).
        self.assume_hot = assume_hot

    def is_hot(self, sf) -> bool:
        return (self.assume_hot
                or sf.path.resolve() in self.hot_files)


@dataclass
class LintResult:
    """Outcome of one lint run (before baseline filtering)."""

    findings: list                       # active findings, sorted
    suppressed: list = field(default_factory=list)
    files: int = 0
    hot_files: dict = field(default_factory=dict)


class Linter:
    """Run the rule set over a set of paths.

    Parameters
    ----------
    paths:
        Files or directories to lint.
    root:
        Paths in findings are reported relative to this directory
        (default: the current working directory).
    rules:
        Rule instances to run (default: every registered rule).
    use_registry:
        Import :mod:`repro.registry` to discover hot-tier files.  Off
        for fixture tests that lint arbitrary snippets.
    assume_hot:
        Treat every linted file as hot-tier (fixture tests for the
        tier-scoped rules).
    """

    def __init__(self, paths, root=None, rules=None,
                 use_registry: bool = True, assume_hot: bool = False):
        self.paths = [Path(p) for p in paths]
        self.root = Path(root) if root is not None else Path.cwd()
        self.rules = tuple(rules) if rules is not None else all_rules()
        self.use_registry = use_registry
        self.assume_hot = assume_hot

    def _context(self) -> LintContext:
        hot = {}
        if self.use_registry:
            from .hot import discover_hot_files
            hot = discover_hot_files()
        return LintContext(self.root, hot_files=hot,
                           assume_hot=self.assume_hot)

    def run(self) -> LintResult:
        files = iter_python_files(self.paths)
        if not files:
            raise AnalysisError(
                f"no Python files under {[str(p) for p in self.paths]}")
        ctx = self._context()
        active: list = []
        suppressed: list = []
        for path in files:
            try:
                sf = SourceFile.read(path, root=self.root)
            except SyntaxError as exc:
                active.append(Finding(
                    code="E001", path=self._rel(path),
                    line=exc.lineno or 1, column=(exc.offset or 1) - 1,
                    message=f"file does not parse: {exc.msg}",
                ))
                continue
            for rule in self.rules:
                for f in rule.check(sf, ctx):
                    if sf.is_suppressed(f.code, f.line):
                        suppressed.append(f)
                    else:
                        active.append(f)
        return LintResult(
            findings=assign_occurrences(active),
            suppressed=assign_occurrences(suppressed),
            files=len(files),
            hot_files={str(p): labels
                       for p, labels in sorted(ctx.hot_files.items())},
        )

    def _rel(self, path) -> str:
        try:
            return str(Path(path).relative_to(self.root))
        except ValueError:
            return str(path)


def lint_source(text: str, rules=None, assume_hot: bool = True,
                filename: str = "<fixture>") -> list:
    """Lint one in-memory snippet — the unit-test entry point.

    Returns the active findings (suppressions applied).  ``assume_hot``
    defaults to True so fixtures exercise the tier-scoped rules without
    a registry.
    """
    sf = SourceFile(filename, text)
    ctx = LintContext(Path.cwd(), assume_hot=assume_hot)
    out = []
    for rule in (rules if rules is not None else all_rules()):
        for f in rule.check(sf, ctx):
            if not sf.is_suppressed(f.code, f.line):
                out.append(f)
    return assign_occurrences(out)

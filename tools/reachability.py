"""Which of ``src/repro`` does any real entry point run?

    python tools/reachability.py

Runs every root in :data:`ROOTS` (CLI subcommands and the four
perfbench workloads), the six ``examples/*.py`` and the tier-1 suite,
each in a fresh child interpreter under a ``sys.setprofile`` +
``threading.setprofile`` call recorder that notes every Python function
entered, as ``(file, co_firstlineno, co_qualname)``.  A module counts
as reached when a root enters at least one function defined in it.

Prints the two markdown tables EXPERIMENTS.md keeps:

1. every module no root reaches, its line count, why it stays, its
   *pinned-test cost* (the tier-1 test ids that enter one of its
   functions — a fixture's calls count for every test that uses it,
   whatever its scope) and the examples that call it;
2. every function (``def``, outermost unentered one only) of a
   *reached* module that no root or example enters, with its length
   and the tier-1 ids that pin it.

Two blind spots, both reported as "not entered": calls made while a
module body runs on import (registrations, ``lazy_exports``, table
builders such as ``_build_table``), and everything in a child process
a root spawns (process-pool and daemon workers, the TCP server).  Slab
bodies a worker runs also run in-process on the serial and thread legs.

Takes no flags; exits 1 if any run fails.  Runs take several minutes;
the tier-1 pass under the recorder is most of it.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PKG = SRC / "repro"

_KERNELS = ("binomial", "black_scholes", "brownian", "crank_nicolson",
            "monte_carlo", "rng")
_BACKENDS = ("serial", "thread", "process", "daemon")

#: The 31 real roots: ``python -m repro`` argument lists, and
#: perfbench workloads (``perfbench/run.py``, traced, so the per-layer
#: probes run too; a traced run also runs every untraced phase).
ROOTS = (
    ("experiment", "all"), ("ninja",), ("platforms", "--host"),
    *(("figure", k) for k in _KERNELS),
    *(("profile", k) for k in _KERNELS),
    ("price", "--steps", "64", "--grid", "96", "--paths", "5000"),
    # sweep checks every tier against the serial reference tier.
    *(("sweep", "--smoke", "--backends", bs, "--repeats", "1", "--out", "")
      for bs in ("serial", "serial,thread", "serial,process",
                 "serial,daemon")),
    *(("scaling", "--smoke", "--crossover", "--backends", b,
       "--workers", "1,2", "--repeats", "1", "--out", "")
      for b in _BACKENDS),
    ("dse", "--smoke", "--out", ""),
    ("loadtest", "--smoke", "--clients", "4", "--requests", "24",
     "--rates", "400", "--out", ""),
    ("lint",),
    *((str(ROOT / "perfbench" / "run.py"), "--workload", w, "--seed", "1",
       "--seconds", "3", "--trace", "1")
      for w in ("batch_kernels", "batch_wide", "serve_steady",
                "serve_churn")),
)

#: Why an unreached module stays, where the answer is not "an example
#: calls it": the validation instruments and the test oracles.
REASONS = {
    "simd/machine.py": "validation instrument: the tracing machine that "
                       "checks the model's instruction counts",
    "simd/vec.py": "validation instrument: `F64Vec` on that machine",
    "kernels/binomial/traced.py": "validation instrument: Fig. 5 tiers on "
                                  "the machine",
    "kernels/black_scholes/traced.py": "validation instrument: AOS/SOA "
                                       "access counts",
    "kernels/crank_nicolson/traced.py": "validation instrument: wavefront "
                                        "gathers",
    "validation/convergence.py": "test oracle (textbook convergence rates)",
    "validation/golden.py": "test oracle (hand-checked anchors)",
    "pricing/exotic_analytic.py": "test oracle (geometric-Asian closed "
                                  "form)",
}

#: Imported by every root for their constants and exception classes;
#: the one function each defines is an unreached error path.
VOCABULARY = ("config.py", "errors.py")

#: Reached only in a child process a root spawns, which the recorder
#: does not follow: perfbench's ``serve.tcp_roundtrip_us`` probe runs
#: ``run_server`` in one.
CHILD_ONLY = ("serve/server.py",)

_CO_OPTIMIZED = 0x1     # set on function code, clear on module/class bodies


class _Recorder:
    """Adds the code object of every function entered to ``sink``,
    except while an import runs a module body: what that body calls (its
    generator expressions, constant tables, registrations) runs on
    import too."""

    def __init__(self):
        import threading
        self.sink = set()
        self._imports = threading.local()   # module bodies running, per thread

    def __call__(self, frame, event, arg):
        if event != "call" and event != "return":
            return
        code = frame.f_code
        state = self._imports
        if not code.co_flags & _CO_OPTIMIZED:
            if (code.co_name == "<module>"
                    and frame.f_globals.get("__name__") != "__main__"):
                state.depth = getattr(state, "depth", 0) + (
                    1 if event == "call" else -1)
        elif (event == "call" and self.sink is not None
              and not getattr(state, "depth", 0)):
            self.sink.add(code)

    def install(self):
        """Record in this thread and every thread started later.  A
        root that sets its own profiler (perfbench counts a warm run's
        calls with one) runs alongside the recorder, and clearing it
        reinstates the recorder instead of ending the recording."""
        import threading
        real = self._setprofile = sys.setprofile

        def chained(fn):
            def both(frame, event, arg):
                self(frame, event, arg)
                fn(frame, event, arg)
            real(self if fn is None else both)

        threading.setprofile(self)
        sys.setprofile = chained
        real(self)

    def remove(self):
        import threading
        sys.setprofile = self._setprofile
        sys.setprofile(None)
        threading.setprofile(None)


class _PerTest:
    """pytest plugin: the functions each test id enters, fixtures
    included."""

    def __init__(self, rec: _Recorder):
        self.rec = rec
        self.by_test = {}
        self.by_fixture = {}
        rec.sink = None                     # collection is not a test

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        own = self.rec.sink = set()
        try:
            return (yield)
        finally:
            self.rec.sink = None
            info = getattr(item, "_fixtureinfo", None)
            for defs in (info.name2fixturedefs.values() if info else ()):
                own |= self.by_fixture.get(defs[-1], set())
            self.by_test[item.nodeid] = own

    @pytest.hookimpl(wrapper=True)
    def pytest_fixture_setup(self, fixturedef, request):
        outer = self.rec.sink
        mine = self.rec.sink = set()
        try:
            return (yield)
        finally:
            self.rec.sink = outer
            self.by_fixture.setdefault(fixturedef, set()).update(mine)
            if outer is not None:
                outer |= mine


def _child() -> None:
    """Child entry: record one run and write what it entered as JSON."""
    import runpy
    out, target, *args = sys.argv[1:]
    rec = _Recorder()
    plugin = _PerTest(rec) if target == "pytest" else None
    code = 0
    rec.install()
    try:
        if plugin is not None:
            code = pytest.main(["-q", "-p", "no:cacheprovider", *args],
                               plugins=[plugin])
        else:
            sys.argv = [target, *args]
            if target.endswith(".py"):
                runpy.run_path(target, run_name="__main__")
            else:
                runpy.run_module(target, run_name="__main__",
                                 alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) \
            else int(exc.code is not None)
    finally:
        rec.remove()
        table: dict = {}                    # code -> row in "funcs"

        def index(codes):
            return sorted(table.setdefault(c, len(table)) for c in codes
                          if c.co_filename.startswith(str(PKG)))

        if plugin is not None:
            found = {k: index(v) for k, v in plugin.by_test.items()}
        else:
            found = index(rec.sink)
        funcs = [(c.co_filename, c.co_firstlineno,
                  getattr(c, "co_qualname", c.co_name)) for c in table]
        with open(out, "w") as fh:
            json.dump({"funcs": funcs, "found": found}, fh)
    sys.exit(code)


_CHILD = ("import sys; sys.path.insert(0, {!r}); "
          "import reachability; reachability._child()")


def _run(target: str, args, scratch: str, tag: str):
    """Run one recorded child in ``scratch``: its exit code and the
    ``(module, first line, qualname)`` functions it entered (per test
    id for the tier-1 run)."""
    out = os.path.join(scratch, f"{tag}.json")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", _CHILD.format(str(Path(__file__).parent)),
           out, target, *args]
    proc = subprocess.run(cmd, cwd=scratch, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        print(f"FAIL ({proc.returncode}): {target} {' '.join(args)}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
    if not os.path.exists(out):
        return proc.returncode or 1, ({} if target == "pytest" else set())
    with open(out) as fh:
        data = json.load(fh)
    funcs = [(Path(f).relative_to(PKG).as_posix(), line, qual)
             for f, line, qual in data["funcs"]]
    found = data["found"]
    if isinstance(found, dict):
        return proc.returncode, {k: {funcs[i] for i in v}
                                 for k, v in found.items()}
    return proc.returncode, {funcs[i] for i in found}


def _key(func) -> tuple:
    """``(module, first line, name)``: one ``def`` whether it comes from
    a code object or from the module's syntax tree."""
    mod, line, qual = func
    return mod, line, qual.rsplit(".", 1)[-1]


def _modules(funcs) -> set:
    """The modules (relative to ``src/repro``) of ``funcs``."""
    return {mod for mod, _, _ in funcs}


def _defs(mod: str):
    """Every ``def`` in a module: ``(first line, qualname, lines,
    enclosing def's first line or None)``.  The first line is the first
    decorator's, as in ``co_firstlineno``."""
    out = []

    def walk(node, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                qual = prefix + child.name
                out.append((first, qual, child.end_lineno - first + 1,
                            parent))
                walk(child, qual + ".<locals>.", first)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", parent)
            else:
                walk(child, prefix, parent)

    walk(ast.parse((PKG / mod).read_text()), "", None)
    return out


def _pins(ids) -> str:
    ids = sorted(ids)
    shown = ", ".join(f"`{i}`" for i in ids[:3])
    return f"{len(ids)}: {shown}{', …' if len(ids) > 3 else ''}" \
        if ids else "0"


def main() -> int:
    failed = 0
    entered = set()                         # by a root or an example
    reached = set()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        for i, root in enumerate(ROOTS):
            target = root[0] if root[0].endswith(".py") else "repro"
            args = root[1:] if target != "repro" else root
            code, funcs = _run(target, args, scratch, f"root{i}")
            failed += code != 0
            entered |= funcs
            reached |= _modules(funcs)
        examples = {}
        for ex in sorted((ROOT / "examples").glob("*.py")):
            code, funcs = _run(str(ex), (), scratch, ex.stem)
            failed += code != 0
            entered |= funcs
            examples[ex.stem] = _modules(funcs)
        code, by_test = _run("pytest", (str(ROOT / "tests"),), scratch,
                             "tier1")
        failed += code != 0
    pinned = {}
    pinned_ids = {}                 # (module, line, name) -> test ids
    for test, funcs in by_test.items():
        for mod in _modules(funcs):
            pinned[mod] = pinned.get(mod, 0) + 1
        for key in map(_key, funcs):
            pinned_ids.setdefault(key, set()).add(test)

    def why(mod):
        if mod in REASONS:
            return REASONS[mod]
        return "example" if any(mod in m for m in examples.values()) \
            else "none found"

    order = ("validation", "test oracle", "example", "none found")
    rows = []
    for path in sorted(PKG.rglob("*.py")):
        mod = path.relative_to(PKG).as_posix()
        if (mod in reached or mod in VOCABULARY or mod in CHILD_ONLY
                or path.name == "__init__.py"):
            continue
        reason = why(mod)
        rank = next(i for i, p in enumerate(order) if reason.startswith(p))
        calls = ", ".join(k for k, m in examples.items() if mod in m)
        lines = len(path.read_text().splitlines())
        rows.append((rank, mod, lines, reason, pinned.get(mod, 0),
                     calls or "—"))
    print("| Module (`src/repro/`) | Lines | Why it stays | Pinned tests "
          "| Examples that call it |")
    print("|---|---:|---|---:|---|")
    for _, mod, lines, reason, n, calls in sorted(rows):
        print(f"| `{mod}` | {lines} | {reason} | {n} | {calls} |")
    keys_entered = set(map(_key, entered))
    print("\n| Function (`src/repro/`) | Lines | Pinned tier-1 ids |")
    print("|---|---:|---|")
    n_funcs = 0
    for mod in sorted(reached):
        unentered = set()
        for first, qual, length, parent in _defs(mod):
            key = _key((mod, first, qual))
            if key in keys_entered:
                continue
            unentered.add(first)
            if parent in unentered:
                continue                    # its enclosing def is listed
            n_funcs += 1
            print(f"| `{mod}:{qual}` | {length} | "
                  f"{_pins(pinned_ids.get(key, ()))} |")
    print(f"\n{len(ROOTS)} roots, {len(examples)} examples, "
          f"{len(by_test)} tier-1 ids; {n_funcs} unentered functions in "
          f"{len(reached)} reached modules; {failed} run(s) failed",
          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Which of ``src/repro`` does any real entry point run?

    python tools/reachability.py

Runs every root in :data:`ROOTS` (CLI subcommands and the four
perfbench workloads), the six ``examples/*.py`` and the tier-1 suite,
each in a fresh child interpreter under a ``sys.setprofile`` +
``threading.setprofile`` call recorder that notes every Python function
entered.  A module counts as reached when a root enters at least one
function defined in it; module and class bodies, which run on import,
do not count.  Child processes a root spawns (process-pool and daemon
workers) are not recorded; their slab bodies also run in-process on
the serial and thread legs.

Prints the markdown table EXPERIMENTS.md keeps: every module no root
reaches, its line count, why it stays, its *pinned-test cost* (the
tier-1 test ids that enter one of its functions — a fixture's calls
count for every test that uses it, whatever its scope) and the
examples that call it.  Takes no flags; exits 1 if any run fails.
Runs take several minutes; the tier-1 pass under the recorder is most
of it.
"""

from __future__ import annotations

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
     "--rates", "400", "--budgets-ms", "2", "--out", ""),
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
    """Adds the file of every function entered to ``sink``, except
    while an import runs a module body: what that body calls (its
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
            self.sink.add(code.co_filename)

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
    """pytest plugin: the files each test id enters, fixtures included."""

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
        found = ({k: sorted(v) for k, v in plugin.by_test.items()}
                 if plugin is not None else sorted(rec.sink))
        with open(out, "w") as fh:
            json.dump(found, fh)
    sys.exit(code)


_CHILD = ("import sys; sys.path.insert(0, {!r}); "
          "import reachability; reachability._child()")


def _run(target: str, args, scratch: str, tag: str):
    """Run one recorded child in ``scratch``; (exit code, JSON)."""
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
        return proc.returncode or 1, []
    with open(out) as fh:
        return proc.returncode, json.load(fh)


def _modules(files) -> set:
    """Paths relative to ``src/repro`` of the package files in ``files``."""
    rels = set()
    for f in files:
        path = Path(f)
        if path.is_relative_to(PKG):
            rels.add(path.relative_to(PKG).as_posix())
    return rels


def main() -> int:
    failed = 0
    reached = set()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        for i, root in enumerate(ROOTS):
            target = root[0] if root[0].endswith(".py") else "repro"
            args = root[1:] if target != "repro" else root
            code, files = _run(target, args, scratch, f"root{i}")
            failed += code != 0
            reached |= _modules(files)
        examples = {}
        for ex in sorted((ROOT / "examples").glob("*.py")):
            code, files = _run(str(ex), (), scratch, ex.stem)
            failed += code != 0
            examples[ex.stem] = _modules(files)
        code, by_test = _run("pytest", (str(ROOT / "tests"),), scratch,
                             "tier1")
        failed += code != 0
    pinned = {}
    for files in by_test.values():
        for mod in _modules(files):
            pinned[mod] = pinned.get(mod, 0) + 1

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
    print(f"\n{len(ROOTS)} roots, {len(examples)} examples, "
          f"{len(by_test)} tier-1 ids; {failed} run(s) failed",
          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload: pin, census, set-up rounds, measure, verify, report.

The workload classes (:mod:`perfbench.batch`, :mod:`perfbench.serve`)
do the measuring; this module owns what every run shares — the
instrument, the span recorder, the set-up rounds (each a fresh
interpreter running :mod:`perfbench.setup_child`), the leak census and
the result object.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import time

from . import census, spec
from .measure import Host, Samples
from .spans import Recorder, totals_by_name

_UNITS = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.PER_LAYER}


def workload_class(name: str):
    from . import batch, serve
    return {"batch_kernels": batch.BatchKernels,
            "batch_wide": batch.BatchWide,
            "serve_steady": serve.ServeSteady,
            "serve_churn": serve.ServeChurn}[name]


class Run:
    """What one run's phases share."""

    def __init__(self, name: str, seed: int, seconds: float, traced: bool,
                 inject: str | None, out_dir: str, cpus: set):
        self.name = name
        self.seed = seed
        self.seconds = float(seconds)
        self.traced = traced
        self.inject = inject
        self.out_dir = out_dir
        self.host = Host()
        self.rec = Recorder(enabled=traced)
        self.metrics: dict = {}          # name -> (value, samples)
        self.detail: dict = {}           # extra figures for the run file
        self.notes: list = []
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.cpus = cpus                 # affinity before any pinning
        self.setup = Samples("setup")
        self.quantities = {"setup": self.setup}   # timed quantity -> Samples
        self.setup_phases: dict = {}     # label -> [raw seconds]
        self._setup_digest = None
        self._inputs_path = os.path.join(
            out_dir, f"inputs-{name}-{os.getpid()}.pkl")
        self.t_start = time.perf_counter()

    # -- bookkeeping ---------------------------------------------------
    def put(self, name: str, value: float, n: int = 1) -> None:
        self.metrics[name] = (float(value), int(n))

    def wrong(self, why: str) -> None:
        self.correct = False
        self.notes.append(f"WRONG: {why}")

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def sample_rss(self) -> None:
        self.peak_rss_mb = max(self.peak_rss_mb, census.peak_rss_mb())

    # -- set-up rounds -------------------------------------------------
    def prepare_setup(self, inputs) -> None:
        """Hand the inputs to the set-up rounds, as drawn: before the
        run has touched them."""
        with open(self._inputs_path, "wb") as fh:
            pickle.dump(inputs, fh, protocol=pickle.HIGHEST_PROTOCOL)

    def expect_setup_digest(self, digest: str) -> None:
        """The run's own first result; every round must reproduce it."""
        self._setup_digest = digest

    def setup_round(self) -> float:
        """One set-up round in a fresh interpreter; returns its raw
        seconds.  Every phase boundary has a probe (the parent's around
        spawn and exit, the child's own in between)."""
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "setup_child.py")
        before = self.host.probe()
        t_spawn = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, child, self.name, self._inputs_path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=os.path.dirname(self.out_dir), timeout=120)
        t_exit = time.perf_counter()
        after = self.host.probe()
        if proc.returncode != 0:
            self.wrong(f"set-up round failed: {proc.stderr.strip()[-400:]}")
            return t_exit - t_spawn
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if report["digest"] != self._setup_digest:
            self.wrong("set-up round's first result differs from the "
                       "run's own")
        # marks: [label, t_before_probe, t_after_probe, *probe];
        # "inputs" (loading what the parent drew) is not set-up.  The
        # round is corrected by the yardstick readings beside it, each
        # weighted by the length of the phase it closed.
        raw = 0.0
        weighted = [0.0] * len(before)
        t_prev, p_prev = t_spawn, before
        marks = report["marks"] + [["exit", t_exit, t_exit, *after]]
        for label, t_in, t_out, *p in marks:
            if label != "exit":
                self.host.probes.append(tuple(p))
            if label != "inputs":
                d = t_in - t_prev
                raw += d
                for col, (y0, y1) in enumerate(zip(p_prev, p)):
                    weighted[col] += d * 0.5 * (y0 + y1)
                self.setup_phases.setdefault(label, []).append(d)
            t_prev, p_prev = t_out, p
        beside = tuple(w / raw for w in weighted)
        self.setup.add(raw, beside, beside)
        return t_exit - t_spawn

    def cleanup(self) -> None:
        try:
            os.unlink(self._inputs_path)
        except OSError:
            pass


class Outcome:
    def __init__(self, run: Run, names: tuple, leaks: dict):
        self.run = run
        self.names = names
        self.leaks = leaks

    @property
    def ok(self) -> bool:
        return (self.run.correct and self.run.failed == 0
                and not self.leaks["shm_segments"])

    def result(self) -> dict:
        r = self.run
        return {
            "correct": bool(r.correct and not self.leaks["shm_segments"]),
            "attempted": int(max(1, r.attempted)),
            "failed": int(r.failed),
            "metrics": {n: {"value": r.metrics[n][0], "unit": _UNITS[n]}
                        for n in self.names},
        }

    def report_lines(self) -> list:
        r = self.run
        kind = "traced" if r.traced else "untraced"
        lines = [f"# {r.name} seed={r.seed} seconds={r.seconds:g} {kind}: "
                 f"attempted={r.attempted} failed={r.failed} "
                 f"correct={r.correct} wall={r.elapsed():.1f}s"]
        for n in self.names:
            value, count = r.metrics[n]
            lines.append(f"{n:<36} {value:>14.6g} {_UNITS[n]:<6} n={count}")
        lines += [f"# {note}" for note in r.notes]
        for kind_, found in self.leaks.items():
            if found:
                lines.append(f"# LEAK {kind_}: {found}")
        return lines


def run_workload(name: str, *, seed: int, seconds: float, traced: bool,
                 inject: str | None = None,
                 out_dir: str = ".perfbench_out") -> Outcome:
    import repro  # noqa: F401  (fail here, not deep in a phase)

    leaked_ring = None
    cls = workload_class(name)
    cpus = os.sched_getaffinity(0)
    if cls.pin_cpu:
        os.sched_setaffinity(0, {max(cpus)})
    run = Run(name, seed, seconds, traced, inject, out_dir, cpus)
    baseline = census.Census()
    try:
        workload = cls(seed)                  # every input, before any clock
        run.prepare_setup(workload.setup_inputs())
        workload.measure(run)
        if traced:
            from . import layers
            layers.probe_all(run)
        if inject == "shm_leak":
            # Lives until interpreter exit (the ring's own exit guard
            # unlinks it), so the census below must see it.
            from repro.parallel import Ring
            leaked_ring = Ring.create(f"reproleak{os.getpid()}", 4)
            run.notes.append(f"injected segment {leaked_ring.name}")
    finally:
        run.cleanup()
    leaks = baseline.leaks()
    measured = {q: s for q, s in run.quantities.items() if len(s)}
    run.detail["quantities"] = {q: s.describe() for q, s in measured.items()}
    if traced:
        run.put("parallel.shm_segments_leaked", len(leaks["shm_segments"]))
        for key, value in run.host.summary().items():
            if key in _UNITS:
                run.put(key, value, len(run.host.probes))
        run.put("trace.spans", len(run.rec.rows))
        run.detail["spans_by_name"] = {
            n: {"count": c, "total_s": total, "self_s": own}
            for n, (c, total, own) in totals_by_name(run.rec.rows).items()}
        run.rec.write(os.path.join(out_dir, f"trace-{name}.jsonl"),
                      summary=run.detail)
        names = tuple(m["name"] for m in spec.PER_LAYER)
    else:
        run.put("setup_s", run.setup.median_s(), len(run.setup))
        run.put("peak_rss_mb", run.peak_rss_mb)
        run.detail.update(run.host.summary())
        names = tuple(m["name"] for m in spec.END_TO_END)
    missing = [n for n in names if n not in run.metrics]
    if missing:
        raise RuntimeError(f"{name}: metrics not measured: {missing}")
    with open(os.path.join(
            out_dir, f"samples-{name}-{int(traced)}.json"), "w") as fh:
        json.dump({q: s.dump() for q, s in measured.items()}, fh)
    with open(os.path.join(
            out_dir, f"run-{name}-{int(traced)}.json"), "w") as fh:
        json.dump({"workload": name, "seed": seed, "traced": traced,
                   "metrics": {k: v[0] for k, v in run.metrics.items()},
                   "detail": run.detail, "leaks": leaks}, fh, indent=1)
    return Outcome(run, names, leaks)

"""``python -m perfbench``: run, compare, calibrate.

    python -m perfbench run [--traced] [--workload W]... [--runs N]
                            [--seed N] [--seconds S] [--out FILE]
    python -m perfbench compare A.json B.json
    python -m perfbench calibrate [--sets 2] [--runs 5] [--out FILE]

``run`` spawns one fresh process per workload (``perfbench/run.py``, the
command ``BENCHMARK.json`` names), prints every metric by name with
unit and sample count, and exits non-zero if any run reported a wrong
output, a failed request or a leaked shared-memory segment.  Run from
the root of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from . import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def run_once(workload: str, seed: int, seconds: float, traced: bool,
             inject: str | None = None, echo: bool = True,
             keep_samples: bool = False) -> dict:
    """One fresh process; returns its result object, with the run's
    detail file under ``detail`` and the exit code under ``exit``."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(int(traced))]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {}, "exit": proc.returncode, "seed": seed}
    result["exit"] = proc.returncode
    result["seed"] = seed
    try:
        with open(os.path.join(
                OUT_DIR, f"run-{workload}-{int(traced)}.json")) as fh:
            result["detail"] = json.load(fh)["detail"]
    except (OSError, ValueError):
        result["detail"] = {}
    if keep_samples:
        with open(os.path.join(
                OUT_DIR, f"samples-{workload}-{int(traced)}.json")) as fh:
            result["samples"] = json.load(fh)
    return result


def cmd_run(args) -> int:
    workloads = args.workload or list(spec.WORKLOADS)
    doc = {"traced": args.traced, "seconds": args.seconds, "runs": []}
    status = 0
    for r in range(args.runs):
        entry = {"seed": args.seed + r, "workloads": {}}
        for workload in workloads:
            result = run_once(workload, args.seed + r, args.seconds,
                              args.traced, args.inject)
            entry["workloads"][workload] = result
            if result["exit"] != 0 or not result["correct"] \
                    or result["failed"]:
                status = 1
        doc["runs"].append(entry)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m perfbench",
                                 description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="measure every workload")
    run.add_argument("--traced", action="store_true",
                     help="the per-layer (traced) run, not the end-to-end")
    run.add_argument("--workload", action="append",
                     choices=list(spec.WORKLOADS))
    run.add_argument("--runs", type=int, default=1)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    run.add_argument("--inject", choices=("bitflip", "shm_leak"))
    run.add_argument("--out", help="write every run's results here "
                                   "(the input of `compare`)")
    cmp_ = sub.add_parser("compare", help="A.json against B.json")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cal = sub.add_parser("calibrate",
                         help="sets of runs -> CALIBRATION.json")
    cal.add_argument("--sets", type=int, default=2)
    cal.add_argument("--runs", type=int, default=5)
    cal.add_argument("--seed", type=int, default=101)
    cal.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    cal.add_argument("--out",
                     default=os.path.join(HERE, "CALIBRATION.json"))
    args = ap.parse_args(argv)
    if args.cmd == "run":
        return cmd_run(args)
    if args.cmd == "compare":
        from .compare import main as compare_main
        return compare_main(args.a, args.b)
    from .calibrate import main as calibrate_main
    return calibrate_main(args)


if __name__ == "__main__":
    sys.exit(main())

"""One measured run of one workload: the command ``BENCHMARK.json`` names.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints every metric by name with its
unit and sample count, then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits non-zero on a wrong output, a failed request or a leaked
shared-memory segment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def bootstrap() -> None:
    """Make ``perfbench`` and the checkout's own ``repro`` importable
    and keep every file the run touches inside the checkout."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no program to measure ({SRC}/repro missing)")
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [SRC, ROOT]
    os.makedirs(OUT_DIR, exist_ok=True)
    # repro consults a per-user policy file unless told otherwise; the
    # benchmark measures the documented defaults, from inside the tree.
    os.environ["REPRO_POLICY_PATH"] = os.path.join(OUT_DIR, "no-policy.json")
    os.environ.pop("REPRO_CROSSOVER_BYTES", None)


def main(argv=None) -> int:
    bootstrap()
    from perfbench import spec
    from perfbench.harness import run_workload

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("bitflip", "shm_leak"),
                    help="self-test: corrupt one result / strand one "
                         "segment; the run must report it")
    args = ap.parse_args(argv)

    outcome = run_workload(args.workload, seed=args.seed,
                           seconds=args.seconds, traced=bool(args.trace),
                           inject=args.inject, out_dir=OUT_DIR)
    for line in outcome.report_lines():
        print(line)
    print(json.dumps(outcome.result()), flush=True)
    return 0 if outcome.ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""``python -m perfbench calibrate``: the evidence behind the bounds.

Runs every workload ``--sets`` x ``--runs`` times untraced (each run
its own seed, set after set, as the driver does) and once traced, and
writes every value with per-set ranges and medians, each timed
quantity's run-to-run range as declared, under each yardstick alone and
raw, the weights its pooled samples fit, and what the frozen constants
in :mod:`perfbench.spec` were when it ran.
"""

from __future__ import annotations

import json
import statistics

from . import spec
from .compare import spread


def _range(values) -> float:
    """(max - min) as a share of the median."""
    return (max(values) - min(values)) / statistics.median(values)


def _metric_table(sets: list, workload: str, metric: dict) -> dict:
    per_set = []
    for runs in sets:
        values = [r["workloads"][workload]["metrics"][metric["name"]]["value"]
                  for r in runs]
        per_set.append({"values": values,
                        "median": statistics.median(values),
                        "range": _range(values)})
    everything = [v for s in per_set for v in s["values"]]
    medians = [s["median"] for s in per_set]
    return {
        "unit": metric["unit"], "better": metric["better"],
        "bound": metric["bound"], "sets": per_set,
        "spread_all_runs": spread(everything),
        "largest_set_to_set_difference":
            (max(medians) - min(medians)) / min(medians),
    }


def best_shares(samples: list) -> dict:
    """What bounds a quantity, from its runs' samples: the shares, on a
    grid of tenths, under which the run medians range least.  (A
    least-squares fit of sample time on the yardstick readings beside
    it comes out low: a probe is a noisy reading of the host's state,
    and noise in a regressor dilutes its slope.)"""
    import itertools

    import numpy as np

    from .yardstick import YARDS
    runs = [(np.asarray(s["raw_s"]),
             [np.asarray(s[f"{y}_s"]) / (spec.YARD_REF_US[y] * 1e-6)
              for y in YARDS]) for s in samples]
    best = None
    for tenths in itertools.product(range(11), repeat=len(YARDS)):
        if sum(tenths) > 10:
            continue
        shares = [k / 10 for k in tenths]
        rest = 1.0 - sum(shares)
        medians = [float(np.median(
            t / (sum(w * y for w, y in zip(shares, readings)) + rest)))
            for t, readings in runs]
        spread_ = _range(medians)
        if best is None or spread_ < best[0]:
            best = (spread_, shares)
    return {"shares": {y: w for y, w in zip(YARDS, best[1]) if w},
            "range": best[0]}


def _quantity_table(sets: list, workload: str) -> dict:
    """Run-to-run range of every timed quantity's median as declared,
    under each yardstick alone and raw, and the shares that fit its
    samples best."""
    from .yardstick import YARDS
    keys = ["corrected_s", "raw_s"] + [f"{y}_only_s" for y in YARDS]
    rows: dict = {}
    for runs in sets:
        for r in runs:
            result = r["workloads"][workload]
            detail = result.get("detail", {})
            for name, q in detail.get("quantities", {}).items():
                row = rows.setdefault(name, {"weights": q["weights"],
                                             "samples": [],
                                             **{k: [] for k in keys}})
                for key in keys:
                    row[key].append(q[key])
                if name in result.get("samples", {}):
                    row["samples"].append(result["samples"][name])
    out = {}
    for name, row in rows.items():
        out[name] = {
            "declared": row["weights"],
            "median_s": statistics.median(row["corrected_s"]),
            "range_declared": _range(row["corrected_s"]),
            "range_raw": _range(row["raw_s"]),
            **{f"range_{y}_only": _range(row[f"{y}_only_s"])
               for y in YARDS},
        }
        if row["samples"]:
            out[name]["fitted"] = best_shares(row["samples"])
    return out


def summarise(sets: list, traced: dict, seconds: float) -> dict:
    host = {"contended_share": [], "yard_call_us": [], "yard_vec_us": [],
            "yard_call_p5_us": [], "yard_vec_p5_us": []}
    for runs in sets:
        for r in runs:
            for result in r["workloads"].values():
                d = result.get("detail", {})
                for key in host:
                    if f"host.{key}" in d:
                        host[key].append(d[f"host.{key}"])
    doc = {
        "run_seconds": seconds,
        "frozen": {
            "YARD_REF_US": spec.YARD_REF_US,
            "YARDSTICK": spec.YARDSTICK,
            "KERNEL_SIZES": spec.KERNEL_SIZES,
            "WIDE_PLANS": [list(p) for p in spec.WIDE_PLANS],
            "SERVE": {k: {kk: vv for kk, vv in v.items()}
                      for k, v in spec.SERVE.items()},
        },
        "host": {
            "contended_share_per_run": host["contended_share"],
            "yard_call_us_median_per_run": host["yard_call_us"],
            "yard_vec_us_median_per_run": host["yard_vec_us"],
            "yard_call_p5_us": statistics.median(host["yard_call_p5_us"]),
            "yard_vec_p5_us": statistics.median(host["yard_vec_p5_us"]),
        },
        "end_to_end": {}, "quantities": {}, "traced": {},
        "seeds": [[r["seed"] for r in runs] for runs in sets],
    }
    for workload in spec.WORKLOADS:
        doc["end_to_end"][workload] = {
            m["name"]: _metric_table(sets, workload, m)
            for m in spec.END_TO_END}
        doc["quantities"][workload] = _quantity_table(sets, workload)
        raw = [r["workloads"][workload].get("detail", {})
               .get("raw_latency_p50_ms") for runs in sets for r in runs]
        if all(v is not None for v in raw):
            doc["end_to_end"][workload]["host.raw_latency_p50_ms"] = {
                "values": raw, "range": _range(raw)}
        if workload in traced:
            doc["traced"][workload] = traced_row(traced[workload])
    return doc


def traced_row(result: dict) -> dict:
    """What the calibration keeps of one traced run."""
    d = result.get("detail", {})
    return {
        "seed": result["seed"], "correct": result["correct"],
        "pass_coverage": d.get("pass_coverage"),
        "reconcile_ratio": d.get("reconcile_ratio"),
        "dispatch_overhead_ms": d.get("dispatch_overhead_ms"),
        "layer_probe_seconds": d.get("layer_probe_seconds"),
        "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
    }


def main(args) -> int:
    from .__main__ import run_once

    sets = []
    status = 0
    seed = args.seed
    for s in range(args.sets):
        runs = []
        for _ in range(args.runs):
            entry = {"seed": seed, "workloads": {}}
            for workload in spec.WORKLOADS:
                result = run_once(workload, seed, args.seconds, False,
                                  echo=False, keep_samples=True)
                entry["workloads"][workload] = result
                shown = {k: round(v["value"], 4)
                         for k, v in result["metrics"].items()}
                print(f"set {s} seed {seed} {workload}: {shown}",
                      flush=True)
                if result["exit"] != 0:
                    status = 1
            runs.append(entry)
            seed += 1
        sets.append(runs)
    traced = {}
    for workload in spec.WORKLOADS:
        traced[workload] = run_once(workload, seed, args.seconds, True,
                                    echo=False)
        if traced[workload]["exit"] != 0:
            status = 1
        print(f"traced seed {seed} {workload}: exit "
              f"{traced[workload]['exit']}", flush=True)
    doc = summarise(sets, traced, args.seconds)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
    for workload, table in doc["end_to_end"].items():
        for name, row in table.items():
            if "sets" not in row:
                continue
            ranges = ", ".join(f"{s['range']:.1%}" for s in row["sets"])
            print(f"{workload:<14} {name:<15} set ranges {ranges}  "
                  f"spread {row['spread_all_runs']:.1%}  set-to-set "
                  f"{row['largest_set_to_set_difference']:.1%}  "
                  f"bound {row['bound']:.0%}")
    return status

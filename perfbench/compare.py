"""Compare two result files written by ``python -m perfbench run --out``.

One row per (workload, end-to-end metric): each side's median and
quartiles over its runs, the ratio B/A with its base, and a verdict:

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  the runs of a side spread wider than the bound, and not
                every run of B reads better than every run of A — the
                data cannot tell "unchanged" from "changed".
"""

from __future__ import annotations

import json
import statistics

from . import spec


def quartiles(values) -> tuple:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def values_of(doc: dict, workload: str, metric: str) -> list:
    return [run["workloads"][workload]["metrics"][metric]["value"]
            for run in doc["runs"]
            if workload in run["workloads"]
            and metric in run["workloads"][workload]["metrics"]]


def verdict(a: list, b: list, better: str, bound: float) -> str:
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = (med_b / med_a - 1.0) if better == "lower" \
        else (med_a / med_b - 1.0)
    if better == "lower":
        b_wins_all = max(b) < min(a)
    else:
        b_wins_all = min(b) > max(a)
    if max(spread(a), spread(b)) > bound and not b_wins_all:
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def compare(doc_a: dict, doc_b: dict) -> list:
    rows = []
    for workload in spec.WORKLOADS:
        for m in spec.END_TO_END:
            a = values_of(doc_a, workload, m["name"])
            b = values_of(doc_b, workload, m["name"])
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            rows.append({
                "workload": workload, "metric": m["name"],
                "unit": m["unit"], "better": m["better"],
                "bound": m["bound"], "a": qa, "b": qb,
                "runs": (len(a), len(b)), "ratio": qb[1] / qa[1],
                "verdict": verdict(a, b, m["better"], m["bound"]),
            })
    return rows


def render(rows: list) -> str:
    lines = [f"{'workload':<14} {'metric':<15} {'unit':<5} "
             f"{'A median [q1, q3]':<32} {'B median [q1, q3]':<32} "
             f"{'B/A (base A)':<22} verdict"]
    for r in rows:
        a = f"{r['a'][1]:.5g} [{r['a'][0]:.5g}, {r['a'][2]:.5g}]"
        b = f"{r['b'][1]:.5g} [{r['b'][0]:.5g}, {r['b'][2]:.5g}]"
        ratio = f"{r['ratio']:.3f} (A={r['a'][1]:.5g})"
        lines.append(
            f"{r['workload']:<14} {r['metric']:<15} {r['unit']:<5} "
            f"{a:<32} {b:<32} {ratio:<22} {r['verdict']} "
            f"({r['better']} is better, bound {r['bound']:.0%}, "
            f"runs {r['runs'][0]}/{r['runs'][1]})")
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        doc_a = json.load(fh)
    with open(path_b) as fh:
        doc_b = json.load(fh)
    rows = compare(doc_a, doc_b)
    print(render(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0

"""The measured-bench table: one entry per ``python -m repro <bench>``.

Next to the *modeled* :data:`~repro.bench.experiments.EXPERIMENTS`
registry, :data:`MEASURED` declares every study that times this host:
which ``measure_*`` function of :mod:`repro.bench` produces the record,
which ``*_result`` views render it, where the artifact lands, which
flags of the shared vocabulary (:data:`FLAGS`) the subcommand takes —
their parsed values are the ``measure_*`` keywords, plus the entry's
``extra`` — the gate (``failures``) and the acceptance lines
(``summary``).  A gate is a function of digests, tier agreement and the
allocation audit only: no exit code reads a clock (perfbench owns
capacity and latency, speed-corrected and bounded); timing verdicts are
reported figures and ``[PASS]``/``[MISS]`` marks.
:func:`run_measured` is the only runner — the CLI registers the
subcommands by looping over the table, and CI loops over its names.

``measure`` and ``views`` are attribute names resolved on
:mod:`repro.bench` at run time, so importing this module loads nothing
the package has not loaded already.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ..config import PAPER_SIZES, SMALL_SIZES, SMOKE_SIZES
from .export import FORMATS, render


def _csv(kind):
    """argparse ``type=`` for a comma-separated list of ``kind``."""
    def parse(text: str) -> tuple:
        return tuple(kind(x.strip()) for x in text.split(",") if x.strip())
    parse.__name__ = f"{kind.__name__}-list"     # argparse's error wording
    return parse


#: The shared flag vocabulary: key -> (option string, argparse kwargs).
#: Each flag's dest is the ``measure_*`` keyword it feeds (``dest=``
#: where the option spells it differently), so an entry's parsed flags
#: are its keyword dict; ``workers``/``worker-counts`` are the two
#: shapes of ``--workers``.
FLAGS = {
    "smoke": ("--smoke", dict(
        action="store_true", help="seconds-long CI size (SMOKE_SIZES)")),
    "full": ("--full", dict(
        action="store_true", help="use PAPER_SIZES workloads")),
    "backend": ("--backend", dict(
        default="serial", help="serial,thread,process,daemon")),
    "backends": ("--backends", dict(
        type=_csv(str), default="serial,thread,process,daemon",
        help="comma-separated subset of serial,thread,process,daemon")),
    "kernels": ("--kernels", dict(
        type=_csv(str), default=None,
        help="comma-separated kernel subset (default: all)")),
    "workers": ("--workers", dict(
        dest="n_workers", type=int, default=None,
        help="pool width (default: cpu_count)")),
    "worker-counts": ("--workers", dict(
        dest="worker_counts", type=_csv(int), default=None,
        help="comma-separated worker counts "
             "(default: 1,2,4,...,cpu_count)")),
    "slab-bytes": ("--slab-bytes", dict(type=int, default=None)),
    "repeats": ("--repeats", dict(
        type=int, default=None,
        help="best-of repeats (default: 2 with --smoke, else 5)")),
    "seed": ("--seed", dict(type=int, default=2012)),
    "format": ("--format", dict(default="text", choices=list(FORMATS))),
    "crossover": ("--crossover", dict(
        action="store_true",
        help="also measure the pool-crossover overhead table "
             "(recorded under 'crossover' in the JSON)")),
    "tier": ("--tier", dict(
        default="black_scholes:parallel",
        help="kernel:tier to drive (batchable tiers only)")),
    "clients": ("--clients", dict(
        dest="n_clients", type=int, default=64,
        help="concurrent open-loop clients")),
    "requests": ("--requests", dict(
        dest="capacity_requests", type=int, default=None,
        help="capacity-phase request count")),
    "rates": ("--rates", dict(
        type=_csv(float), default=None,
        help="comma-separated arrival rates (req/s)")),
}


@dataclass(frozen=True)
class MeasuredBench:
    """One measured study: what to run, render, write and gate on."""

    name: str
    help: str
    measure: str                  # attribute of repro.bench
    views: tuple                  # *_result attributes of repro.bench
    artifact: str                 # default --out, in the cwd
    flags: tuple                  # keys of FLAGS (format/out are implied)
    extra: Callable               # args -> keywords no flag spells out
    failures: Callable = lambda data, smoke: []
    summary: Callable = lambda data: []


def _sized(a) -> dict:
    """``sizes`` from ``--smoke``/``--full`` (SMALL_SIZES otherwise)."""
    return {"sizes": SMOKE_SIZES if a.smoke
            else PAPER_SIZES if getattr(a, "full", False) else SMALL_SIZES}


def _tier_digests(data) -> dict:
    """``{kernel/tier: [digest per backend the sweep timed it on]}``."""
    digests: dict = {}
    for k in data["kernels"]:
        for t in k["tiers"]:
            digests.setdefault(f"{k['kernel']}/{t['tier']}",
                               []).append(t["digest"])
    return digests


def _audited(data) -> list:
    return [(f"{k['kernel']}/{t['tier']}", t["audit"])
            for k in data["kernels"] for t in k["tiers"]
            if t["audit"] is not None]


def _sweep_failures(data, smoke) -> list:
    disagree = [f"{k['kernel']}/{t['tier']}[{t['backend']}]"
                for k in data["kernels"] for t in k["tiers"]
                if not t["agrees"]]
    diverge = [name for name, d in _tier_digests(data).items()
               if len(set(d)) > 1]
    dirty = [name for name, audit in _audited(data)
             if not audit["clean"]]
    failures = []
    if disagree:
        failures.append(f"tiers disagree with reference: {disagree}")
    if diverge:
        failures.append(f"backends diverge: {diverge}")
    if dirty:
        failures.append(f"warm run allocates in the numpy domain "
                        f"(held bytes or peak over PEAK_NOISE_BUDGET): "
                        f"{dirty}")
    return failures


def _sweep_summary(data) -> list:
    n_tiers = sum(len(k["tiers"]) for k in data["kernels"])
    n_multi = sum(len(d) > 1 for d in _tier_digests(data).values())
    return [f"agreement: all {n_tiers} timed (kernel x tier x backend) "
            f"implementations match their reference tier",
            f"determinism: all {n_multi} multi-backend tiers "
            f"digest-identical across {','.join(data['backends'])}",
            f"allocation audit: all {len(_audited(data))} planned serial "
            f"tiers hold no numpy bytes after a warm run, peak within "
            f"PEAK_NOISE_BUDGET"]


def _pooled_best(kernel: dict, workers: int, key: str) -> float:
    return max((p[key] for p in kernel["points"]
                if p["n_workers"] == workers and p["backend"] != "serial"),
               default=0.0)


def _scaling_summary(data) -> list:
    """The hardware-dependent acceptance lines: informational
    ``[PASS]``/``[MISS]`` marks, never an exit code (a digest mismatch
    already raises inside ``measure_scaling``)."""
    lines = []

    # Dispatch-overhead before/after: pool (process) vs daemon rings.
    overhead = {(ov["backend"], ov["n_workers"]): ov["us"]
                for ov in data.get("dispatch_overhead", ())}
    for w in sorted(w for (b, w) in overhead if b == "process"
                    and ("daemon", w) in overhead and w > 1):
        pool_us, ring_us = overhead[("process", w)], overhead[("daemon", w)]
        ratio = pool_us / ring_us if ring_us > 0 else float("inf")
        gate = "" if w < 4 else (" [PASS]" if ratio >= 10 else " [MISS]")
        lines.append(f"dispatch overhead at {w} workers: pool "
                     f"{pool_us:.0f} us/call -> daemon {ring_us:.0f} "
                     f"us/call ({ratio:.1f}x lower){gate}")

    if 4 in data["worker_counts"] and not data["smoke"]:
        winners = [k["kernel"] for k in data["kernels"]
                   if _pooled_best(k, 4, "speedup") >= 1.5]
        status = "PASS" if len(winners) >= 3 else "MISS"
        lines.append(f"scaling acceptance (>=1.5x over serial at 4 "
                     f"workers, >=3 kernels): {len(winners)} kernel(s) "
                     f"{winners} [{status}]")
    else:
        top = max(data["worker_counts"])
        effs = ", ".join(
            f"{k['kernel']}={_pooled_best(k, top, 'efficiency'):.2f}"
            for k in data["kernels"])
        lines.append(f"measured parallel efficiency at {top} workers "
                     f"(host has {data['cpu_count']} CPU(s); the 4-worker "
                     f"acceptance gate needs >= 4 cores and a non-smoke "
                     f"run): {effs}")
    return lines


def _loadtest_extra(a) -> dict:
    kernel, _, tier = a.tier.partition(":")
    return dict(
        kernel=kernel, tier=tier or "parallel",
        capacity_requests=a.capacity_requests or (192 if a.smoke else 768),
        latency_requests=96 if a.smoke else 400,
        rates=a.rates or ((200.0,) if a.smoke else (100.0, 200.0, 400.0)))


def _loadtest_failures(data, smoke) -> list:
    """Digests and compiles, never a clock: ``capacity.gate_5x`` stays
    in the record and the rendered table as a reported figure."""
    cap = data["capacity"]
    compiled = [f"capacity/{mode}" for mode in ("batched", "per_request")
                if cap[mode]["compiles"]]
    compiled += [f"latency/{r['rate_rps']:g} req/s"
                 for r in data["latency"] if r["compiles"]]
    failures = [f"digest mismatch: {m}"
                for m in data["digest_mismatches"][:5]]
    if compiled:
        failures.append(f"plan compiled inside a timed window: {compiled}")
    return failures


def _dse_extra(a) -> dict:
    from ..tune import DEFAULT_AXES, SMOKE_AXES

    return dict(axes=SMOKE_AXES if a.smoke else DEFAULT_AXES)


_SLAB = ("workers", "slab-bytes", "repeats", "seed")

MEASURED = {b.name: b for b in (
    MeasuredBench(
        name="sweep",
        help="measured Ninja gap: time every registered tier x backend",
        measure="measure_ninja_sweep",
        views=("sweep_detail_result", "sweep_gap_result"),
        artifact="BENCH_ninja_measured.json",
        flags=("smoke", "full", "backends", "kernels", *_SLAB),
        extra=_sized, failures=_sweep_failures,
        summary=_sweep_summary),
    MeasuredBench(
        name="scaling",
        help="measured core scaling: parallel tiers x workers x backends",
        measure="measure_scaling",
        views=("scaling_result",),
        artifact="BENCH_scaling.json",
        flags=("smoke", "full", "backends", "kernels", "worker-counts",
               "slab-bytes", "repeats", "seed", "crossover"),
        extra=_sized, summary=_scaling_summary),
    MeasuredBench(
        name="loadtest",
        help="open-loop Poisson loadtest of the pricing gateway "
             "(capacity + latency grid)",
        measure="measure_serving",
        views=("serving_result",),
        artifact="BENCH_serving.json",
        flags=("smoke", "backend", "tier", "clients", "requests", "rates",
               "workers", "seed"),
        extra=_loadtest_extra, failures=_loadtest_failures),
    MeasuredBench(
        name="dse",
        help="design-space exploration: modeled Ninja-gap and "
             "crossover surfaces",
        measure="measure_dse",
        views=("dse_result",),
        artifact="BENCH_dse.json",
        flags=("smoke",),
        extra=_dse_extra),
)}


def run_measured(spec: MeasuredBench, args) -> int:
    """Measure, stamp, render, write the artifact, then gate: ``FAIL:``
    lines on stderr and exit 1, or the acceptance summary and exit 0."""
    from .. import bench

    dests = [FLAGS[key][1].get("dest", key.replace("-", "_"))
             for key in spec.flags if key not in ("smoke", "full")]
    kwargs = {dest: getattr(args, dest) for dest in dests}
    if "repeats" in kwargs and kwargs["repeats"] is None:
        kwargs["repeats"] = 2 if args.smoke else 5
    kwargs.update(spec.extra(args))
    data = getattr(bench, spec.measure)(**kwargs)
    data["bench"] = spec.name
    data["smoke"] = args.smoke
    data["cpu_count"] = os.cpu_count()
    print("\n\n".join(render(getattr(bench, view)(data), args.format)
                      for view in spec.views))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    failures = spec.failures(data, args.smoke)
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    if failures:
        return 1
    for line in spec.summary(data):
        print(line)
    return 0


def add_measured_parsers(sub) -> None:
    """Register one subcommand per :data:`MEASURED` entry on ``sub``."""
    for spec in MEASURED.values():
        p = sub.add_parser(spec.name,
                           help=f"{spec.help} -> {spec.artifact}")
        for key in (*spec.flags, "format"):
            option, kwargs = FLAGS[key]
            p.add_argument(option, **kwargs)
        p.add_argument("--out", default=spec.artifact,
                       help="raw measurement JSON path ('' to skip)")
        p.set_defaults(fn=partial(run_measured, spec))

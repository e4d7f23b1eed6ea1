"""Measured Ninja-gap sweep.

The paper's headline number — the Ninja gap — is quantified twice in
this repo.  :mod:`repro.bench.ninja` computes the *modeled* gap from the
SNB-EP/KNC machine models; this module *measures* it, timing every
implementation registered with :mod:`repro.registry` (each kernel ×
functional tier × backend) on the kernel's shared workload and reporting
``best-tier rate / reference-tier rate`` per kernel, side by side with
the modeled figures.

Every checked tier is also compared against the reference tier on the
same payload (within the registered tolerance) and fingerprinted with
an MD5 digest of its result slab, so the sweep doubles as a
cross-backend determinism check: for a fixed seed, a tier registered on
several backends (``serial``/``thread``/``process``/``daemon``) must
produce bit-identical results on all of them.  Multi-output tiers
(Greeks, implied vol, scenario grids) are compared on the outputs they
share with the reference — for every checked risk tier that is the
``price`` vector — and digested over their full stacked slab.  Every
planned serial tier also carries the allocation audit of one warm run
(:func:`~repro.plan.audit_allocations`): no numpy bytes held, peak
within :data:`~repro.plan.audit.PEAK_NOISE_BUDGET`.  The ``sweep``
gate (:mod:`.suite`) fails on any of the three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SMALL_SIZES, WorkloadSizes
from ..errors import ExperimentError
from ..results import as_result_slab
from .harness import time_run, timing_fields


@dataclass(frozen=True)
class MeasuredNinjaGap:
    """One kernel's measured Ninja gap (plus the modeled comparison)."""

    kernel: str
    reference_tier: str
    best_tier: str                 # "tier[backend]"
    reference_rate: float          # items/s
    best_rate: float               # items/s
    measured_gap: float            # best_rate / reference_rate
    modeled: dict | None           # {platform: gap} or None (rng)


def _common_diff(out, ref) -> float | None:
    """Max abs difference over the outputs ``out`` shares (name and
    shape) with the reference slab; ``None`` when nothing is shared."""
    common = [name for name in out.outputs
              if name in ref.outputs
              and out[name].shape == ref[name].shape]
    if not common:
        return None
    return max(float(np.max(np.abs(out[name] - ref[name])))
               for name in common)


def measure_ninja_sweep(sizes: WorkloadSizes = SMALL_SIZES,
                        backends: tuple = ("serial", "thread", "process",
                                           "daemon"),
                        n_workers: int | None = None,
                        slab_bytes: int | None = None,
                        repeats: int = 3, seed: int = 2012,
                        kernels: tuple | None = None,
                        policy="fixed") -> dict:
    """Time every registered (kernel × tier × backend) implementation.

    Per kernel the workload is built once (from ``sizes`` and ``seed``)
    and shared by all tiers; per tier one plan is compiled, run once
    for the agreement check/digest and then ``repeats`` more times for
    the best-of wall clock (``plan.run``, the served path — as
    :func:`~.harness.time_plan`); a planned serial tier's plan is then
    audited.  Returns the JSON-ready dict behind
    ``BENCH_ninja_measured.json``.

    ``policy`` (``"fixed"``/``"auto"``/path): under a non-fixed policy
    each kernel's pooled executors take the policy's per-kernel
    ``min_parallel_bytes`` before timing — or their own crossover when
    the table has no entry for the kernel — and each kernel records the
    value in force, so sweeps measure the same dispatch decisions the
    tuned runtime would make; ``"fixed"`` pins the historical behaviour
    for reproducible digest comparisons.  Digests are policy-invariant
    by construction — inline-vs-pool never changes slab plans or values.
    """
    from .. import registry
    from ..parallel import SlabExecutor
    from ..plan import audit_allocations, compile_plan
    from ..plan.audit import PEAK_NOISE_BUDGET
    from ..tune import load_policy
    from .ninja import ninja_gaps

    table = load_policy(policy)

    for backend in backends:
        if backend not in registry.BACKENDS:
            raise ExperimentError(
                f"unknown backend {backend!r}; want one of "
                f"{registry.BACKENDS}")
    names = registry.kernels()
    if kernels is not None:
        unknown = [k for k in kernels if k not in names]
        if unknown:
            raise ExperimentError(
                f"unknown kernel(s) {unknown}; registered: {list(names)}")
        names = tuple(k for k in names if k in kernels)

    executors = {b: SlabExecutor(b, n_workers=n_workers,
                                 slab_bytes=slab_bytes) for b in backends}
    if "serial" not in executors:
        # The reference tier always runs serial, even in a thread-only
        # sweep.
        executors["serial"] = SlabExecutor("serial", n_workers=n_workers,
                                           slab_bytes=slab_bytes)
    # Every executor is built alike, so they share one own crossover.
    own_mpb = executors["serial"].min_parallel_bytes
    entries = []
    try:
        for kernel in names:
            applied_mpb = None
            if table is not None:
                # A kernel the table has no entry for runs under the
                # executors' own crossover, not the previous kernel's.
                applied_mpb = table.min_parallel_bytes(kernel)
                if applied_mpb is None:
                    applied_mpb = own_mpb
                for b, ex in executors.items():
                    if b != "serial":
                        ex.min_parallel_bytes = applied_mpb
            spec = registry.workload(kernel)
            payload = spec.build(sizes, seed=seed)
            items = spec.items(payload)
            ref = registry.reference_impl(kernel)
            ref_out = as_result_slab(ref.fn(payload, executors["serial"]),
                                     ref.outputs)

            tiers = []
            for impl in registry.impls(kernel=kernel):
                if impl.backend not in backends:
                    continue
                ex = executors[impl.backend]
                with compile_plan(kernel, impl.tier, payload,
                                  backend=impl.backend,
                                  executor=ex) as plan:
                    out = as_result_slab(plan.run(), impl.outputs)
                    run = time_run(impl.label, plan.run, items, repeats)
                    audit = None
                    if plan.planned and impl.backend == "serial":
                        a = audit_allocations(plan.run)
                        audit = {
                            "held_bytes": a.numpy_bytes,
                            "peak_bytes": a.peak_bytes,
                            "clean": (a.clean
                                      and a.peak_bytes <= PEAK_NOISE_BUDGET),
                        }
                tol = (impl.tolerance if impl.tolerance is not None
                       else spec.tolerance)
                diff = _common_diff(out, ref_out)
                entry = {
                    "tier": impl.tier,
                    "backend": impl.backend,
                    "level": impl.level.value,
                    "n_workers": 1 if impl.backend == "serial"
                    else ex.n_workers,
                    "items": items,
                    "rate": run.rate * spec.scale,
                    "checked": impl.checked,
                    "tolerance": tol,
                    "outputs": list(impl.outputs),
                    "max_abs_diff": diff,
                    "agrees": (not impl.checked)
                    or (diff is not None and diff <= tol),
                    "digest": out.digest(),
                    "planned": plan.planned,
                    "audit": audit,
                }
                entry.update(timing_fields("time", run))
                tiers.append(entry)

            ref_entry = next(t for t in tiers
                             if t["tier"] == ref.tier
                             and t["backend"] == "serial")
            best = max(tiers, key=lambda t: t["rate"])
            entries.append({
                "kernel": kernel,
                "items": items,
                "unit": spec.unit.strip(),
                "scale": spec.scale,
                "reference_tier": ref.tier,
                "best_tier": f"{best['tier']}[{best['backend']}]",
                "measured_gap": best["rate"] / ref_entry["rate"],
                "modeled_gap": (ninja_gaps(kernel) if spec.modeled_gap
                                else None),
                "policy_min_parallel_bytes": applied_mpb,
                "tiers": tiers,
            })
    finally:
        for ex in executors.values():
            ex.close()

    any_ex = next(iter(executors.values()))
    return {
        "backends": list(backends),
        "n_workers": any_ex.n_workers,
        "slab_bytes": any_ex.slab_bytes,
        "repeats": repeats,
        "seed": seed,
        "policy_mode": (policy if isinstance(policy, str) else "pinned"),
        "kernels": entries,
    }


def measured_gaps(data: dict) -> list:
    """Per-kernel :class:`MeasuredNinjaGap` views of a sweep result."""
    gaps = []
    for k in data["kernels"]:
        ref = next(t for t in k["tiers"]
                   if t["tier"] == k["reference_tier"]
                   and t["backend"] == "serial")
        best_rate = ref["rate"] * k["measured_gap"]
        gaps.append(MeasuredNinjaGap(
            kernel=k["kernel"],
            reference_tier=k["reference_tier"],
            best_tier=k["best_tier"],
            reference_rate=ref["rate"] / k["scale"],
            best_rate=best_rate / k["scale"],
            measured_gap=k["measured_gap"],
            modeled=k["modeled_gap"],
        ))
    return gaps


def _geomean(values) -> float:
    values = list(values)
    if not values:
        return float("nan")
    prod = 1.0
    for v in values:
        prod *= v
    return prod ** (1.0 / len(values))


def sweep_gap_result(data: dict):
    """The measured-vs-modeled Ninja-gap table as an
    :class:`~repro.bench.experiments.ExperimentResult`."""
    from .experiments import ExperimentResult
    gaps = measured_gaps(data)
    rows = []
    for g in gaps:
        rows.append((
            g.kernel, g.reference_tier, g.best_tier,
            round(g.measured_gap, 2),
            round(g.modeled["SNB-EP"], 2) if g.modeled else "-",
            round(g.modeled["KNC"], 2) if g.modeled else "-",
        ))
    modeled = [g for g in gaps if g.modeled]
    rows.append((
        "AVERAGE", "", "(geomean)",
        round(_geomean(g.measured_gap for g in gaps), 2),
        round(_geomean(g.modeled["SNB-EP"] for g in modeled), 2)
        if modeled else "-",
        round(_geomean(g.modeled["KNC"] for g in modeled), 2)
        if modeled else "-",
    ))
    return ExperimentResult(
        exp_id="ninja_measured",
        title="Measured vs modeled Ninja gap (best tier / reference tier)",
        headers=("kernel", "ref tier", "best tier", "measured",
                 "SNB-EP model", "KNC model"),
        rows=rows,
        notes=[
            f"backends={','.join(data['backends'])} "
            f"workers={data['n_workers']} repeats={data['repeats']} "
            f"seed={data['seed']}",
            "measured = host wall clock on the shared registry workload; "
            "modeled = machine-model throughput ratio (bench.ninja)",
        ],
    )


def sweep_detail_result(data: dict):
    """Every timed (kernel × tier × backend) row of a sweep, with
    per-tier agreement status."""
    from .experiments import ExperimentResult
    rows = []
    for k in data["kernels"]:
        ref = next(t for t in k["tiers"]
                   if t["tier"] == k["reference_tier"]
                   and t["backend"] == "serial")
        for t in k["tiers"]:
            rows.append((
                k["kernel"], f"{t['tier']}[{t['backend']}]",
                round(t["time_s"] * 1e3, 3),
                round(t["rate"], 3), k["unit"],
                round(t["rate"] / ref["rate"], 2),
                "yes" if t["agrees"] else "NO",
            ))
    return ExperimentResult(
        exp_id="ninja_measured_detail",
        title="Measured functional-tier sweep (host wall clock)",
        headers=("kernel", "tier", "best ms", "rate", "unit", "vs ref",
                 "agrees"),
        rows=rows,
        notes=[
            f"backends={','.join(data['backends'])} "
            f"workers={data['n_workers']} repeats={data['repeats']} "
            f"seed={data['seed']}",
        ],
    )

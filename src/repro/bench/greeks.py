"""Risk-workload benchmark: the Greeks tiers, cold and plan-compiled.

The multi-output counterpart of the Ninja sweep: every kernel that
registers a ``greeks_tier`` prices its shared workload's risk slab
(analytic fused Greeks, CRN bump-and-revalue, pathwise estimators —
whatever the kernel's method admits) on the requested backends, cold
(``impl.fn`` per call: the one-shot, compile + run + retire) and warm
(``plan.run`` on a plan compiled once).  Each point records the slab
digest so the run doubles as the cross-backend determinism check for
the risk tiers, and the serial point carries the allocation audit that
proves warm planned Greeks runs allocate nothing in the numpy domain.
"""

from __future__ import annotations

from ..config import SMALL_SIZES, WorkloadSizes
from ..errors import ExperimentError
from ..results import as_result_slab
from .harness import time_run
from .record import timing_fields


def measure_greeks(sizes: WorkloadSizes = SMALL_SIZES,
                   backends: tuple = ("serial", "thread"),
                   repeats: int = 3, seed: int = 2012,
                   kernels: tuple | None = None,
                   n_workers: int | None = None,
                   slab_bytes: int | None = None,
                   audit: bool = True) -> dict:
    """Time every registered Greeks tier, cold and planned.

    Returns the JSON-ready dict behind ``BENCH_greeks.json``: per
    kernel x backend a cold (one-shot) rate, a warm (plan-compiled)
    rate, the slab digest, and (serial, when ``audit``) the warm-run
    allocation audit.
    """
    from .. import registry
    from ..parallel import SlabExecutor
    from ..plan import audit_allocations, compile_plan

    for backend in backends:
        if backend not in registry.BACKENDS:
            raise ExperimentError(
                f"unknown backend {backend!r}; want one of "
                f"{registry.BACKENDS}")
    names = registry.greeks_kernels()
    if kernels is not None:
        unknown = [k for k in kernels if k not in names]
        if unknown:
            raise ExperimentError(
                f"kernel(s) {unknown} have no greeks tier; "
                f"available: {list(names)}")
        names = tuple(k for k in names if k in kernels)

    entries = []
    for kernel in names:
        spec = registry.workload(kernel)
        tier = registry.greeks_tier(kernel)
        payload = spec.build(sizes, seed=seed)
        items = spec.items(payload)
        points = []
        digests = {}
        for backend in backends:
            impl = registry.impl(kernel, tier, backend)
            with SlabExecutor(backend, n_workers=n_workers,
                              slab_bytes=slab_bytes) as ex:
                cold = time_run(f"{impl.label}_cold",
                                lambda: impl.fn(payload, ex),
                                items, repeats)
            with compile_plan(kernel, tier, payload, backend=backend,
                              n_workers=n_workers) as plan:
                digest = as_result_slab(plan.run(),
                                        impl.outputs).digest()
                digests[backend] = digest
                warm = time_run(f"{impl.label}_warm", plan.run,
                                items, repeats)
                point = {
                    "backend": backend,
                    "items": items,
                    "cold_rate": cold.rate * spec.scale,
                    "warm_rate": warm.rate * spec.scale,
                    "planned": plan.planned,
                    "digest": digest,
                }
                point.update(timing_fields("cold", cold))
                point.update(timing_fields("warm", warm))
                if audit and backend == "serial":
                    result = audit_allocations(plan.run)
                    point["audit_clean"] = result.clean
                    point["audit_peak_bytes"] = result.peak_bytes
            points.append(point)
        entries.append({
            "kernel": kernel,
            "tier": tier,
            "outputs": list(registry.impl(kernel, tier,
                                          backends[0]).outputs),
            "items": items,
            "unit": spec.unit.strip(),
            "scale": spec.scale,
            "backends_bit_identical":
                len(set(digests.values())) == 1,
            "points": points,
        })
    return {
        "backends": list(backends),
        "repeats": repeats,
        "seed": seed,
        "kernels": entries,
    }


def greeks_result(data: dict):
    """The Greeks-tier benchmark as an
    :class:`~repro.bench.experiments.ExperimentResult` table."""
    from .experiments import ExperimentResult
    rows = []
    for k in data["kernels"]:
        for p in k["points"]:
            ok = (k["backends_bit_identical"]
                  and p.get("audit_clean", True))
            rows.append((
                k["kernel"], k["tier"], p["backend"],
                ",".join(k["outputs"]),
                round(p["cold_s"] * 1e3, 3),
                round(p["warm_s"] * 1e3, 3),
                round(p["cold_rate"], 3), k["unit"],
                "yes" if ok else "NO",
            ))
    return ExperimentResult(
        exp_id="greeks",
        title="Risk workloads: Greeks tiers, cold vs plan-compiled",
        headers=("kernel", "tier", "backend", "outputs", "cold ms",
                 "warm ms", "rate", "unit", "ok"),
        rows=rows,
        notes=[
            f"backends={','.join(data['backends'])} "
            f"repeats={data['repeats']} seed={data['seed']}",
            "ok = backends bit-identical + warm serial run "
            "allocation-clean",
            "cold = registered fn per call (one-shot: compile + run + "
            "retire); warm = plan.run on a plan compiled once "
            "(arena-backed workspaces, zero-allocation steady state)",
        ],
    )

"""The two batch workloads: warm compiled plans run by one caller.

``batch_kernels`` runs the six kernels' parallel tiers on the serial
backend, kernel by kernel (the paper's own measurement); ``batch_wide``
runs three wide plans on a two-worker daemon.  A *pass* is one run of
every plan; every ``plan.run()`` is its own probe-bracketed sample, and
the pass latency is the sum of the per-plan medians.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import time

import numpy as np

from repro import registry
from repro.config import SMALL_SIZES, SMOKE_SIZES
from repro.parallel import SlabExecutor, default_crossover_bytes
from repro.plan import compile_plan
from repro.results import as_result_slab

from . import census, spec
from .measure import Samples, median
from .spans import coverage

#: Share of a traced run's length spent in the workload's own phases;
#: the layer probes take the rest.
TRACED_SHARE = 0.6


def result_digest(result) -> str:
    return hashlib.md5(
        np.ascontiguousarray(np.asarray(result)).tobytes()).hexdigest()


def pass_digest(plans: dict, corrupt: bool = False) -> str:
    """One untimed pass; md5 over every plan's result, in plan order.
    ``corrupt`` is the self-test's fault, in the first plan's result."""
    h = hashlib.md5()
    for i, plan in enumerate(plans.values()):
        result = plan.run()
        if corrupt and i == 0:
            flip_one_bit(np.asarray(result))
        h.update(result_digest(result).encode())
    return h.hexdigest()


def flip_one_bit(array: np.ndarray) -> None:
    """The self-test's fault: the lowest mantissa bit of one value
    (written through an index: the array may be a strided view)."""
    first = (0,) * array.ndim
    bits = np.float64(array[first]).view(np.uint64) ^ np.uint64(1)
    array[first] = bits.view(np.float64)


def kernel_payloads(seed: int) -> dict:
    sizes = dataclasses.replace(SMALL_SIZES, **spec.KERNEL_SIZES)
    return {k: registry.workload(k).build(sizes, seed=seed)
            for k in spec.KERNELS}


def compile_kernel_plans(payloads: dict) -> dict:
    return {k: compile_plan(k, registry.parallel_tier(k), payload,
                            backend="serial")
            for k, payload in payloads.items()}


def close_plans(plans: dict) -> None:
    for plan in plans.values():
        plan.close()


def run_passes(run, plans: dict, samples: dict, until: float,
               counter: list, pass_name: str = "pass") -> int:
    """Timed passes until the clock reaches ``until`` (at least one).
    In a traced run every other pass is recorded (an even number of
    passes, so at least one of each), and the two halves give the
    tracing overhead.  ``counter`` numbers the passes across calls;
    returns the number made."""
    host, rec = run.host, run.rec
    clock = time.perf_counter
    tracing = rec.enabled
    done = 0
    after = host.probe()
    while True:
        rec.enabled = tracing and counter[0] % 2 == 0
        which = "traced" if rec.enabled else "plain"
        with rec.span(pass_name, key=counter[0]):
            for label, plan in plans.items():
                before = after
                t0 = clock()
                index = rec.open(f"run.{label}", key=counter[0])
                plan.run()
                rec.close(index)
                elapsed = clock() - t0
                with rec.span("host.probe"):
                    after = host.probe()
                samples[which][label].add(elapsed, before, after)
        counter[0] += 1
        done += 1
        run.attempted += len(plans)
        if clock() >= until and (not tracing or counter[0] % 2 == 0):
            break
    rec.enabled = tracing
    return done


def pass_seconds(samples: dict, which: str = "corrected") -> float:
    """Sum over the plans of each plan's median run time."""
    if which == "raw":
        return sum(median(s.raw) for s in samples.values())
    return sum(s.median_s() for s in samples.values())


def merged(samples: dict) -> dict:
    """Traced and plain samples of each plan, pooled."""
    out = {}
    for label, plain in samples["plain"].items():
        both = Samples(plain.quantity)
        both.extend(plain)
        both.extend(samples["traced"][label])
        out[label] = both
    return out


def report_batch(run, samples: dict, cpu_s: float, passes: int) -> None:
    """The figures both batch workloads report."""
    pooled = merged(samples)
    latency = pass_seconds(pooled)
    n = min(len(s) for s in pooled.values())
    raw = pass_seconds(pooled, "raw")
    run.quantities.update(pooled)
    run.detail["raw_latency_p50_ms"] = raw * 1e3
    if not run.traced:
        run.put("latency_p50_ms", latency * 1e3, n)
        run.put("ops_per_s", 1.0 / latency, n)
        return
    run.put("host.raw_latency_p50_ms", raw * 1e3, n)
    run.put("host.raw_ops_per_s", 1.0 / raw, n)
    run.put("host.cpu_ms_per_op", cpu_s / passes * 1e3, passes)
    traced = pass_seconds(samples["traced"])
    plain = pass_seconds(samples["plain"])
    run.put("host.trace_overhead_share", 1.0 - plain / traced,
            min(len(s) for s in samples["plain"].values()))


def new_samples(plans: dict, prefix: str) -> dict:
    """Recorded and unrecorded samples of every plan; the timed
    quantity of a plan is ``<prefix>.<label>``."""
    return {which: {label: Samples(f"{prefix}.{label}") for label in plans}
            for which in ("plain", "traced")}


def rounds_and_budget(run) -> tuple:
    """Set-up rounds of a run and the seconds its own phases may take
    (a round is at least four seconds, so short smoke runs make few)."""
    if run.traced:
        return max(1, min(3, int(run.seconds / 8))), \
            run.seconds * TRACED_SHARE
    return max(1, min(spec.SETUP_ROUNDS, int(run.seconds / 4))), run.seconds


class BatchKernels:
    name = "batch_kernels"
    pin_cpu = True

    def __init__(self, seed: int):
        self.payloads = kernel_payloads(seed)

    def setup_inputs(self):
        return self.payloads

    @staticmethod
    def setup_round(payloads, mark) -> str:
        plans = compile_kernel_plans(payloads)
        mark("build")
        digest = pass_digest(plans)
        mark("first_result")
        close_plans(plans)
        return digest

    def measure(self, run) -> None:
        check_tiers(run)
        plans = compile_kernel_plans(self.payloads)
        first = pass_digest(plans)
        run.expect_setup_digest(first)
        pass_digest(plans)                       # warm
        samples = new_samples(plans, "kernel")
        rounds, budget = rounds_and_budget(run)
        counter = [0]
        cpu0 = census.cpu_seconds()
        t0 = run.t_start        # the budget covers the build above too
        passes = 0
        for r in range(rounds):
            run.setup_round()
            passes += run_passes(run, plans, samples,
                                 t0 + budget * (r + 1) / rounds,
                                 counter=counter)
            corrupt = run.inject == "bitflip" and r == rounds - 1
            if pass_digest(plans, corrupt) != first:
                run.wrong(f"pass digest changed after {passes} passes")
        cpu_s = census.cpu_seconds() - cpu0
        run.sample_rss()
        close_plans(plans)
        report_batch(run, samples, cpu_s, passes)
        if run.traced:
            for k, s in merged(samples).items():
                run.put(f"kernels.run_ms.{k}", s.median_s() * 1e3, len(s))
            run.detail["pass_coverage"] = coverage(run.rec.rows, "pass")


def check_tiers(run) -> None:
    """Every checked serial tier of every kernel agrees with the
    kernel's reference tier on SMOKE sizes, within the registered
    tolerance."""
    with SlabExecutor("serial") as ex:
        for kernel in spec.KERNELS:
            wl = registry.workload(kernel)
            payload = wl.build(SMOKE_SIZES, seed=run.seed)
            ref = registry.reference_impl(kernel)
            want = as_result_slab(ref.fn(payload, ex), ref.outputs)
            for impl in registry.impls(kernel, backend="serial"):
                if impl is ref or not impl.checked:
                    continue
                got = as_result_slab(impl.fn(payload, ex), impl.outputs)
                tol = (impl.tolerance if impl.tolerance is not None
                       else wl.tolerance)
                shared = [n for n in got.outputs if n in want.outputs]
                diff = max((float(np.max(np.abs(got[n] - want[n])))
                            for n in shared), default=float("inf"))
                if not diff <= tol:
                    run.wrong(f"{impl.label} differs from {ref.label} by "
                              f"{diff:g} (tolerance {tol:g})")


class BatchWide:
    name = "batch_wide"
    pin_cpu = False

    def __init__(self, seed: int):
        self.payloads = {}
        for i, (kernel, tier, items) in enumerate(spec.WIDE_PLANS):
            field = ("black_scholes_nopt" if kernel == "black_scholes"
                     else "brownian_paths")
            sizes = dataclasses.replace(SMALL_SIZES, **{field: items})
            self.payloads[f"{kernel}.{tier}"] = registry.workload(
                kernel).build(sizes, seed=seed + i)

    def setup_inputs(self):
        return self.payloads

    @staticmethod
    def open_stack(payloads, backend: str):
        """The executor and the compiled plans of one backend.  Same
        worker count on both backends: the slab plan, and so the
        result bits, depend on it and on nothing else."""
        ex = SlabExecutor(backend, n_workers=spec.WIDE_WORKERS,
                          min_parallel_bytes=default_crossover_bytes())
        plans = {}
        for label, payload in payloads.items():
            kernel, tier = label.split(".")
            plans[label] = compile_plan(kernel, tier, payload,
                                        backend=backend, executor=ex)
        return ex, plans

    @staticmethod
    def setup_round(payloads, mark) -> str:
        ex, plans = BatchWide.open_stack(payloads, "daemon")
        mark("build")
        digest = pass_digest(plans)
        mark("first_result")
        close_plans(plans)
        ex.close()
        return digest

    def measure(self, run) -> None:
        serial_ex, serial = self.open_stack(copy.deepcopy(self.payloads),
                                            "serial")
        ex, plans = self.open_stack(self.payloads, "daemon")
        try:
            self._measure(run, plans, serial)
        finally:
            close_plans(plans)
            ex.close()
            close_plans(serial)
            serial_ex.close()

    def _measure(self, run, plans, serial) -> None:
        first = pass_digest(plans)
        run.expect_setup_digest(first)
        want = {label: result_digest(plan.run())
                for label, plan in serial.items()}
        for label, plan in plans.items():
            result = plan.run()
            if run.inject == "bitflip" and label == "black_scholes.parallel":
                flip_one_bit(result)
            if result_digest(result) != want[label]:
                run.wrong(f"{label}: daemon result differs from serial")
        samples = new_samples(plans, "batch_wide")
        serial_samples = new_samples(serial, "batch_wide")
        rounds, budget = rounds_and_budget(run)
        counter, serial_counter = [0], [0]
        cpu0 = census.cpu_seconds()
        t0 = run.t_start
        passes = 0
        for r in range(rounds):
            run.setup_round()
            until = t0 + budget * (r + 1) / rounds
            if not run.traced:
                passes += run_passes(run, plans, samples, until,
                                     counter=counter)
                continue
            # Traced: the serial pass of the same payloads beside the
            # daemon pass, two of each at a time (one recorded, one not).
            while True:
                passes += run_passes(run, plans, samples, 0.0,
                                     pass_name="pass.daemon",
                                     counter=counter)
                run_passes(run, serial, serial_samples, 0.0,
                           pass_name="pass.serial", counter=serial_counter)
                if time.perf_counter() >= until:
                    break
        cpu_s = census.cpu_seconds() - cpu0
        if pass_digest(plans) != first:
            run.wrong(f"pass digest changed after {passes} passes")
        run.sample_rss()
        report_batch(run, samples, cpu_s, passes)
        if run.traced:
            daemon_s = pass_seconds(merged(samples))
            serial_s = pass_seconds(merged(serial_samples))
            run.put("parallel.speedup_vs_serial", serial_s / daemon_s,
                    counter[0])
            run.detail["dispatch_overhead_ms"] = (
                daemon_s - serial_s / spec.WIDE_WORKERS) * 1e3
            run.detail["pass_coverage"] = min(
                coverage(run.rec.rows, "pass.daemon"),
                coverage(run.rec.rows, "pass.serial"))

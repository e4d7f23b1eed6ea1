"""Layer probes: one small measurement per per-layer metric.

Every traced run ends here, so every per-layer name is a real
measurement on every workload.  A probe times calls into one layer's
public functions from outside, speed-corrected like everything else;
figures the workload's own traced phases already produced (its kernels'
run times, its traffic's batch shapes) are kept, the rest are filled in.

Each group below measures the names it lists; a group runs only if one
of its names is still missing.
"""

from __future__ import annotations

import asyncio
import copy
import json
import os
import subprocess
import sys
import time

import numpy as np

from repro import registry, rng, vmath
from repro.config import SMOKE_SIZES
from repro.parallel import Ring, ShmArena, SlabDaemon, SlabExecutor
from repro.plan import PlanCache, audit_allocations, compile_plan, plan_key
from repro.results import ResultSlab
from repro.serve import (PricingGateway, PricingRequest, Staging,
                         adapter_for)
from repro.tune import PolicyEntry, PolicyTable

from . import batch, spec
from .measure import Samples, median, micro


def _noop_slab(arrays, consts, a, b, slab):
    """Empty slab body (module-level: out-of-process backends pickle it
    by reference), so a dispatch of it is transport and nothing else."""
    return None


def _us(seconds: float) -> float:
    return seconds * 1e6


def _staging(tier: str, width: int) -> Staging:
    sig = ("black_scholes", tier, 0.03, 0.25)
    staging = Staging(adapter_for("black_scholes", tier), sig, width)
    gen = np.random.default_rng(width)
    staging.batch.S[:] = gen.uniform(10.0, 200.0, width)
    staging.batch.X[:] = gen.uniform(10.0, 200.0, width)
    staging.batch.T[:] = gen.uniform(0.1, 3.0, width)
    return staging


def _requests(n_requests: int, n_options: int, tier: str) -> list:
    gen = np.random.default_rng(n_requests * 1000 + n_options)
    return [PricingRequest(
        S=gen.uniform(10.0, 200.0, n_options),
        X=gen.uniform(10.0, 200.0, n_options),
        T=gen.uniform(0.1, 3.0, n_options), rate=0.03, vol=0.25,
        kernel="black_scholes", tier=tier) for _ in range(n_requests)]


# ----------------------------------------------------------------------
# kernels, vmath, rng
# ----------------------------------------------------------------------

def kernels_run(run) -> dict:
    """Warm run time of the six ``batch_kernels`` plans (three passes)."""
    plans = batch.compile_kernel_plans(batch.kernel_payloads(run.seed))
    samples = batch.new_samples(plans, "kernel")
    batch.pass_digest(plans)
    counter = [0]
    for _ in range(3):
        batch.run_passes(run, plans, samples, 0.0, counter)
    batch.close_plans(plans)
    return {f"kernels.run_ms.{k}": (s.median_s() * 1e3, len(s))
            for k, s in samples["plain"].items()}


def kernels_smoke(run) -> dict:
    """On SMOKE sizes: compile time, exact call count and allocation
    audit of each kernel's parallel-tier plan, and its Ninja gap
    (reference tier time over parallel tier time, interleaved)."""
    out = {}
    alloc = 0
    with SlabExecutor("serial") as ex:
        for k in spec.KERNELS:
            wl = registry.workload(k)
            payload = wl.build(SMOKE_SIZES, seed=run.seed)
            compile_s = Samples("layer")
            plan = None
            after = run.host.probe()
            for _ in range(3):
                if plan is not None:
                    plan.close()
                before = after
                t0 = time.perf_counter()
                plan = compile_plan(k, registry.parallel_tier(k), payload,
                                    backend="serial", executor=ex)
                elapsed = time.perf_counter() - t0
                after = run.host.probe()
                compile_s.add(elapsed, before, after)
            out[f"plan.compile_ms.{k}"] = (compile_s.median_s() * 1e3, 3)
            plan.run()
            calls = [0]

            def count(frame, event, arg, calls=calls):
                if event in ("call", "c_call"):
                    calls[0] += 1

            sys.setprofile(count)
            try:
                plan.run()
            finally:
                sys.setprofile(None)
            out[f"kernels.calls.{k}"] = (calls[0], 1)
            alloc += audit_allocations(plan.run).numpy_bytes
            ref = registry.reference_impl(k)
            ref_s, par_s = Samples("layer"), Samples("layer")
            for _ in range(3):
                before = after
                t0 = time.perf_counter()
                ref.fn(payload, ex)
                t1 = time.perf_counter()
                plan.run()
                t2 = time.perf_counter()
                after = run.host.probe()
                ref_s.add(t1 - t0, before, after)
                par_s.add(t2 - t1, before, after)
            out[f"kernels.ninja_gap.{k}"] = (
                ref_s.median_s() / par_s.median_s(), 3)
            plan.close()
    out["plan.warm_alloc_bytes"] = (alloc, len(spec.KERNELS))
    return out


def kernels_risk(run) -> dict:
    out = {}
    with SlabExecutor("serial") as ex:
        for tier, name in (("greeks", "kernels.bs_greeks_us.w512"),
                           ("scenario", "kernels.bs_scenario_us.w512")):
            staging = _staging(tier, 512)
            with compile_plan("black_scholes", tier, staging.payload,
                              backend="serial", executor=ex) as plan:
                out[name] = (_us(micro(run.host, plan.run, inner=20,
                                       quantity="layer.vector")), 5)
    return out


def vmath_rng(run) -> dict:
    n = 1 << 16
    gen = np.random.default_rng(run.seed)
    x = gen.uniform(-3.0, 3.0, n)
    pos = gen.uniform(0.1, 10.0, n)
    unit = gen.uniform(0.001, 0.999, n)
    buf = np.empty(n)
    out = {}
    for name, fn in (("exp", lambda: vmath.vexp(x, out=buf)),
                     ("log", lambda: vmath.vlog(pos, out=buf)),
                     ("cnd", lambda: vmath.vcnd(x, out=buf)),
                     ("invcnd", lambda: vmath.vinvcnd(unit))):
        out[f"vmath.{name}_ns_per_elem"] = (
            micro(run.host, fn, inner=3, quantity="layer.vector")
            * 1e9 / n, 5)
    mt = rng.MT19937(run.seed)
    philox = rng.Philox(run.seed)
    normal = rng.NormalGenerator(rng.MT19937(run.seed))
    for name, fn in (("mt19937", lambda: mt.uniform53(n)),
                     ("philox", lambda: philox.uniform53(n)),
                     ("normal", lambda: normal.normals(n))):
        out[f"rng.{name}_ns_per_num"] = (
            micro(run.host, fn, inner=2) * 1e9 / n, 5)
    out["rng.jump_ahead_us"] = (
        _us(micro(run.host, lambda: mt.jumped_copy(1 << 20), inner=1,
                  rounds=3)), 3)
    return out


# ----------------------------------------------------------------------
# plan
# ----------------------------------------------------------------------

def plan_layer(run) -> dict:
    out = {}
    with SlabExecutor("serial") as ex:
        staging = _staging("parallel", 256)
        made = []

        def compile_w256():
            made.append(compile_plan("black_scholes", "parallel",
                                     staging.payload, backend="serial",
                                     executor=ex))

        out["plan.compile_us.bs_w256"] = (
            _us(micro(run.host, compile_w256, inner=5)), 5)
        cache = PlanCache(maxsize=32)
        key = plan_key("black_scholes", "parallel", "serial", ex.n_workers,
                       staging.payload)
        cache.put(key, made.pop())
        for plan in made:
            plan.close()

        def hit():
            cache.get(plan_key("black_scholes", "parallel", "serial",
                               ex.n_workers, staging.payload))

        out["plan.cache_hit_us"] = (_us(micro(run.host, hit, inner=200)), 5)
        cache.clear()

        # What the gateway's scenario path pays per batch on top of the
        # run: run(payload) re-expands the plan's derived inputs.
        scen = _staging("scenario", 256)
        with compile_plan("black_scholes", "scenario", scen.payload,
                          backend="serial", executor=ex) as plan:
            rebound = micro(run.host, lambda: plan.run(scen.payload),
                            inner=20, quantity="layer.vector")
            plain = micro(run.host, plan.run, inner=20,
                          quantity="layer.vector")
        out["plan.rebind_us.w256"] = (_us(rebound - plain), 5)

        floor = _staging("parallel", 64)
        with compile_plan("black_scholes", "parallel", floor.payload,
                          backend="serial", executor=ex) as plan:
            out["plan.run_floor_us"] = (
                _us(micro(run.host, plan.run, inner=200)), 5)
    return out


# ----------------------------------------------------------------------
# parallel
# ----------------------------------------------------------------------

def parallel_dispatch(run) -> dict:
    """A compiled two-slab dispatch of an empty body on each backend."""
    out = {}
    for backend in ("serial", "thread", "process", "daemon"):
        with SlabExecutor(backend, n_workers=spec.WIDE_WORKERS) as ex:
            n = ex.n_workers
            dispatch = ex.compile_shm(
                _noop_slab, n, bytes_per_item=max(ex.slab_bytes, 1),
                sliced={"x": np.zeros(n)}, consts={}, tag="noop")
            inner = 200 if backend in ("serial", "thread") else 40
            out[f"parallel.dispatch_us.{backend}"] = (
                _us(micro(run.host, dispatch.run, inner=inner)), 5)
    return out


def parallel_daemon(run) -> dict:
    start, stop, pin = Samples("layer"), Samples("layer"), Samples("layer")
    after = run.host.probe()
    for _ in range(3):
        before = after
        t0 = time.perf_counter()
        daemon = SlabDaemon(spec.WIDE_WORKERS).start()
        t1 = time.perf_counter()
        daemon.stop()
        t2 = time.perf_counter()
        after = run.host.probe()
        start.add(t1 - t0, before, after)
        stop.add(t2 - t1, before, after)
    with SlabExecutor("daemon", n_workers=spec.WIDE_WORKERS) as ex:
        n = ex.n_workers
        ex.compile_shm(_noop_slab, n, bytes_per_item=max(ex.slab_bytes, 1),
                       sliced={"x": np.zeros(n)}, consts={},
                       tag="warm").close()
        for i in range(5):
            before = after
            t0 = time.perf_counter()
            dispatch = ex.compile_shm(
                _noop_slab, n, bytes_per_item=max(ex.slab_bytes, 1),
                sliced={"x": np.zeros(n)}, consts={}, tag=f"pin{i}")
            elapsed = time.perf_counter() - t0
            after = run.host.probe()
            pin.add(elapsed, before, after)
            dispatch.close()
    return {"parallel.daemon_start_ms": (start.median_s() * 1e3, 3),
            "parallel.daemon_stop_ms": (stop.median_s() * 1e3, 3),
            "parallel.daemon_pin_ms": (pin.median_s() * 1e3, 5)}


def parallel_memory(run) -> dict:
    out = {}
    with Ring.create(f"reprobench{os.getpid()}", 256) as ring:

        def push_pop():
            ring.try_push(1, 2, 3, 4)
            ring.try_pop()

        out["parallel.ring_push_pop_ns"] = (
            micro(run.host, push_pop, inner=500) * 1e9, 5)
    block = np.random.default_rng(run.seed).uniform(size=1 << 20)   # 8 MiB
    arena = ShmArena()
    try:
        seconds = micro(run.host, lambda: arena.stage("bench", block),
                        inner=3, quantity="layer.vector")
    finally:
        arena.close()
    out["parallel.shm_stage_gb_per_s"] = (block.nbytes / seconds / 1e9, 5)
    return out


def parallel_speedup(run) -> dict:
    """``batch_wide``'s plans: five passes on the daemon beside five on
    the serial backend, turn and turn about."""
    wide = batch.BatchWide(run.seed)
    serial_ex, serial = wide.open_stack(copy.deepcopy(wide.payloads),
                                        "serial")
    ex, plans = wide.open_stack(wide.payloads, "daemon")
    try:
        samples = {"daemon": batch.new_samples(plans, "batch_wide"),
                   "serial": batch.new_samples(serial, "batch_wide")}
        for stack in (plans, serial, plans):   # workers touch their segments
            batch.pass_digest(stack)
        counter = [0]
        for _ in range(5):
            batch.run_passes(run, plans, samples["daemon"], 0.0, counter)
            batch.run_passes(run, serial, samples["serial"], 0.0, counter)
    finally:
        batch.close_plans(plans)
        ex.close()
        batch.close_plans(serial)
        serial_ex.close()
    return {"parallel.speedup_vs_serial":
            (batch.pass_seconds(samples["serial"]["plain"])
             / batch.pass_seconds(samples["daemon"]["plain"]), 5)}


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

def serve_pieces(run) -> dict:
    out = {}
    with SlabExecutor("serial") as ex:
        for tier, suffix in (("parallel", "w256"), ("greeks", "w256x6")):
            staging = _staging(tier, 256)
            requests = _requests(7, 36, tier)            # 252 of 256
            if tier == "parallel":
                out["serve.pack_us.w256"] = (
                    _us(micro(run.host, lambda: staging.pack(requests),
                              inner=50)), 5)
            offsets = staging.pack(requests)
            with compile_plan("black_scholes", tier, staging.payload,
                              backend="serial", executor=ex) as plan:
                value = plan.run()
                out[f"serve.scatter_us.{suffix}"] = (
                    _us(micro(run.host,
                              lambda: staging.scatter(value, offsets),
                              inner=50)), 5)
    gen = np.random.default_rng(run.seed)
    S, X, T = (gen.uniform(10.0, 200.0, 36), gen.uniform(10.0, 200.0, 36),
               gen.uniform(0.1, 3.0, 36))
    out["serve.request_construct_us"] = (
        _us(micro(run.host, lambda: PricingRequest(S, X, T, 0.03, 0.25),
                  inner=100)), 5)
    return out


def serve_lifecycle(run) -> dict:
    start, close = Samples("layer"), Samples("layer")
    request = _requests(1, 36, "parallel")[0]

    async def once(before):
        t0 = time.perf_counter()
        gw = PricingGateway(backend="serial")
        await gw.start()
        t1 = time.perf_counter()
        mid = run.host.probe()
        await gw.submit(request)             # so close has a plan to retire
        mid2 = run.host.probe()
        t2 = time.perf_counter()
        await gw.close()
        t3 = time.perf_counter()
        after = run.host.probe()
        start.add(t1 - t0, before, mid)
        close.add(t3 - t2, mid2, after)
        return after

    after = run.host.probe()
    for _ in range(5):
        after = asyncio.run(once(after))
    return {"serve.gateway_start_ms": (start.median_s() * 1e3, 5),
            "serve.gateway_close_ms": (close.median_s() * 1e3, 5)}


def serve_tcp(run) -> dict:
    """One pipelined loopback connection to ``run_server`` in a child
    process: 32 requests written, 32 replies read, per request."""
    root = os.path.dirname(run.out_dir)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from repro.serve.server import run_server; "
            "sys.exit(run_server(port=0, backend='serial'))")
    server = subprocess.Popen(
        [sys.executable, "-u", "-c", code, os.path.join(root, "src")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=root)
    samples = Samples("layer")
    try:
        banner = server.stdout.readline()
        port = int(banner.split(" on ")[1].split()[0].rsplit(":", 1)[1])
        lines = []
        for i, req in enumerate(_requests(32, 36, "parallel")):
            lines.append(json.dumps({
                "id": i, "S": req.S.tolist(), "X": req.X.tolist(),
                "T": req.T.tolist(), "rate": req.rate, "vol": req.vol}))
        blob = ("\n".join(lines) + "\n").encode()

        async def burst(reader, writer):
            writer.write(blob)
            await writer.drain()
            for _ in lines:
                reply = json.loads(await reader.readline())
                if not reply.get("ok"):
                    raise RuntimeError(f"gateway refused: {reply}")

        async def client():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                await burst(reader, writer)                    # warm
                after = run.host.probe()
                for _ in range(5):
                    before = after
                    t0 = time.perf_counter()
                    await burst(reader, writer)
                    elapsed = time.perf_counter() - t0
                    after = run.host.probe()
                    samples.add(elapsed / len(lines), before, after)
            finally:
                writer.close()
                await writer.wait_closed()

        asyncio.run(client())
    finally:
        server.terminate()
        try:
            server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()
    return {"serve.tcp_roundtrip_us": (_us(samples.median_s()), 5)}


_TRAFFIC = ("serve.batch_requests_mean", "serve.batch_fill_share",
            "serve.plan_hit_share", "serve.plan_evictions",
            "serve.service_p50_ms", "serve.queue_wait_p50_ms",
            "serve.open.latency_p90_ms", "serve.open.latency_p99_ms",
            "serve.open.late_p99_ms", "serve.open.within_limit_share")


def serve_traffic(run) -> dict:
    """A short ``serve_steady`` (its traffic figures only), for the
    workloads that are not a serve workload themselves."""
    from .serve import ServeSteady
    ServeSteady(run.seed).measure(run, rounds=1, budget=2.0)
    return {}


# ----------------------------------------------------------------------
# tune, results, registry
# ----------------------------------------------------------------------

def small_layers(run) -> dict:
    out = {}
    table = PolicyTable()
    for k in spec.KERNELS:
        table.set(k, PolicyEntry(min_parallel_bytes=1 << 21))
        table.set(k, PolicyEntry(bucket_width=256), bucket=256)
    out["tune.policy_lookup_us"] = (
        _us(micro(run.host,
                  lambda: table.lookup("black_scholes", ("price",), n=200),
                  inner=500)), 5)
    path = os.path.join(run.out_dir, f"policy-{os.getpid()}.json")
    table.save(path)
    try:
        out["tune.policy_load_ms"] = (
            micro(run.host, lambda: PolicyTable.load(path), inner=3) * 1e3,
            5)
    finally:
        os.unlink(path)
    slab = ResultSlab({"price": np.random.default_rng(run.seed)
                       .uniform(size=2 * 4096)})
    out["results.digest_us.w4096"] = (
        _us(micro(run.host, slab.digest, inner=50,
                  quantity="layer.vector")), 5)
    return out


def registry_import(run) -> dict:
    """``import repro`` in a fresh interpreter: the import phase of the
    set-up rounds this run already made."""
    while len(run.setup) < 3:
        run.setup_round()
    # The round's own correction factor, applied to its import phase.
    phases = [d * c / r for d, c, r in zip(run.setup_phases["import"],
                                           run.setup.corrected(),
                                           run.setup.raw)]
    return {"registry.import_ms": (median(phases) * 1e3, len(phases))}


GROUPS = (
    (tuple(f"kernels.run_ms.{k}" for k in spec.KERNELS), kernels_run),
    (tuple(f"plan.compile_ms.{k}" for k in spec.KERNELS)
     + tuple(f"kernels.calls.{k}" for k in spec.KERNELS)
     + tuple(f"kernels.ninja_gap.{k}" for k in spec.KERNELS)
     + ("plan.warm_alloc_bytes",), kernels_smoke),
    (("kernels.bs_greeks_us.w512", "kernels.bs_scenario_us.w512"),
     kernels_risk),
    (("vmath.exp_ns_per_elem", "vmath.log_ns_per_elem",
      "vmath.cnd_ns_per_elem", "vmath.invcnd_ns_per_elem",
      "rng.mt19937_ns_per_num", "rng.philox_ns_per_num",
      "rng.normal_ns_per_num", "rng.jump_ahead_us"), vmath_rng),
    (("plan.compile_us.bs_w256", "plan.cache_hit_us", "plan.rebind_us.w256",
      "plan.run_floor_us"), plan_layer),
    (tuple(f"parallel.dispatch_us.{b}"
           for b in ("serial", "thread", "process", "daemon")),
     parallel_dispatch),
    (("parallel.daemon_start_ms", "parallel.daemon_stop_ms",
      "parallel.daemon_pin_ms"), parallel_daemon),
    (("parallel.ring_push_pop_ns", "parallel.shm_stage_gb_per_s"),
     parallel_memory),
    (("parallel.speedup_vs_serial",), parallel_speedup),
    (("serve.pack_us.w256", "serve.scatter_us.w256",
      "serve.scatter_us.w256x6", "serve.request_construct_us"),
     serve_pieces),
    (("serve.gateway_start_ms", "serve.gateway_close_ms"), serve_lifecycle),
    (("serve.tcp_roundtrip_us",), serve_tcp),
    (_TRAFFIC, serve_traffic),
    (("tune.policy_lookup_us", "tune.policy_load_ms",
      "results.digest_us.w4096"), small_layers),
    (("registry.import_ms",), registry_import),
)


#: Probes that start worker processes run on every CPU the run was
#: given, also in a workload that pinned itself to one: workers inherit
#: the affinity they are forked under.
UNPINNED = (parallel_dispatch, parallel_daemon, parallel_speedup)


def probe_all(run) -> None:
    run.rec.enabled = False        # the probes are not part of the trace
    took = {}
    pinned = os.sched_getaffinity(0)
    for names, group in GROUPS:
        if all(n in run.metrics for n in names):
            continue
        t0 = time.perf_counter()
        os.sched_setaffinity(0, run.cpus if group in UNPINNED else pinned)
        for name, (value, n) in group(run).items():
            if name not in run.metrics:
                run.put(name, value, n)
        took[group.__name__] = round(time.perf_counter() - t0, 3)
    os.sched_setaffinity(0, pinned)
    run.detail["layer_probe_seconds"] = took
    run.rec.enabled = True

"""Everything the benchmark fixes: workloads, metric names, bounds,
sizes, rates and the yardstick each timed quantity is corrected by.

Pure data (no import of ``repro``), so ``BENCHMARK.json`` can be checked
against it without the program.  ``perfbench/README.md`` is the prose
twin of this file; ``perfbench/tests/test_spec.py`` keeps
``BENCHMARK.json`` in step.
"""

KERNELS = ("black_scholes", "binomial", "brownian", "monte_carlo",
           "crank_nicolson", "rng")

#: Length of one measured run, seconds (``--seconds``).  The driver
#: makes 4 + 22 x 4 runs inside 3420 s, so a run may take 37 s in all.
RUN_SECONDS = 30

# ----------------------------------------------------------------------
# The instrument
# ----------------------------------------------------------------------

#: What one yardstick run costs on this host when nothing contends: the
#: 5th percentile of every probe over the calibration runs (see
#: CALIBRATION.json).  They only fix the unit of a corrected time
#: (1 corrected ms = 1 ms on this host uncontended) and are never
#: re-derived at run time.
YARD_REF_US = {"call": 325.0, "vec": 400.0}

#: A probe slower than this multiple of the run's own 5th-percentile
#: probe counts as taken in the contended state.
CONTENDED_FACTOR = 1.25

#: What bounds each timed quantity: the share of its time that each
#: yardstick bounds; the rest is not slowed by what slows them (memory
#: traffic, timers, system calls).  Fitted by ``python -m perfbench
#: calibrate``: the shares, in tenths, under which the medians of the
#: calibration runs range least.  Re-fit on >= 8 runs when an
#: optimisation changes what bounds a kernel; see README.md,
#: "Re-matching a yardstick".
YARDSTICK = {
    "kernel.black_scholes": {"call": 0.4, "vec": 0.3},
    "kernel.binomial": {"call": 0.9, "vec": 0.1},
    "kernel.brownian": {"vec": 0.3},
    "kernel.monte_carlo": {"call": 0.3, "vec": 0.5},
    "kernel.crank_nicolson": {"call": 0.9},
    "kernel.rng": {"call": 0.8, "vec": 0.2},
    "batch_wide.black_scholes.parallel": {"call": 0.2, "vec": 0.6},
    "batch_wide.black_scholes.greeks": {"call": 0.3, "vec": 0.4},
    "batch_wide.brownian.parallel": {"call": 0.2, "vec": 0.5},
    "serve_steady.closed_window": {"vec": 1.0},
    "serve_churn.closed_window": {"vec": 1.0},
    "setup": {"call": 0.5},
    "layer": {"call": 1.0},         # per-layer micro-probes not named below
    "layer.vector": {"vec": 1.0},   # vmath sweeps, staging copies, digests
}

# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

WORKLOADS = {
    "batch_kernels":
        "the paper's own measurement and the single-threaded baseline: "
        "six warm serial plans, so kernels/vmath/rng do all the work "
        "and dispatch and serving none",
    "batch_wide":
        "multi-slab batches on a 2-worker daemon: slab partition, shm "
        "staging, ring push/ack and worker wake-up carry the run, which "
        "no other workload enters",
    "serve_steady":
        "small requests over 4 warm signatures: queueing, timers, pack, "
        "plan-cache hits and scatter dominate and kernel time is a "
        "small share",
    "serve_churn":
        "more live (signature, width) keys than the plan cache holds: "
        "compile, eviction, rebind and six-output scatter instead of "
        "cache hits",
}

#: ``batch_kernels``: overrides of ``repro.config.SMALL_SIZES`` so every
#: warm serial run takes 15-40 ms here and no kernel is under a tenth
#: of the pass.
KERNEL_SIZES = {
    "black_scholes_nopt": 400_000,
    "brownian_paths": 32_768,
    "rng_numbers": 1 << 18,
    "cn_nopt": 2,
    "mc_path_length": 16_384 * 20,
    "mc_nopt": 4 * 4,
}

#: ``batch_wide``: (kernel, tier, items) — each working set is above the
#: 2 MiB inline/pool crossover, so the daemon really dispatches it.
WIDE_PLANS = (
    ("black_scholes", "parallel", 262_144),
    ("black_scholes", "greeks", 131_072),
    ("brownian", "parallel", 32_768),
)
WIDE_WORKERS = 2

#: Serve workloads.  Gateway arguments are the defaults apart from the
#: backend; ``rate`` is the open-loop Poisson rate, about a tenth of the
#: closed-loop capacity on this host.
SERVE = {
    "serve_steady": {
        "tiers": ("parallel",), "n_signatures": 4,
        "options": (8, 64), "widths": None,
        "n_requests": 2048, "rate": 1000.0, "closed_window_s": 0.1,
    },
    # 24 signatures x 3 widths = 72 keys; a request's size is drawn
    # inside its width, (width/2, width], so it buckets to that width.
    "serve_churn": {
        "tiers": ("greeks", "scenario"), "n_signatures": 24,
        "options": (65, 512), "widths": (128, 256, 512),
        "n_requests": 2048, "rate": 200.0, "closed_window_s": 0.1,
    },
}
CLOSED_CALLERS = 32
OPEN_WINDOW_S = 1.0
LATENCY_LIMIT_MS = 10.0
KEPT_RESULTS = 256

#: Set-up rounds per run (each a fresh interpreter), spread through it.
SETUP_ROUNDS = 7

# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
     "bound": 0.15},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.20},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
     "bound": 0.08},
)


def _per_layer() -> tuple:
    rows = []

    def add(name, unit, better="lower"):
        rows.append({"name": name, "unit": unit, "better": better})

    for k in KERNELS:
        add(f"kernels.run_ms.{k}", "ms")
    for k in KERNELS:
        add(f"kernels.calls.{k}", "count")
    for k in KERNELS:
        add(f"kernels.ninja_gap.{k}", "x", "higher")
    add("kernels.bs_greeks_us.w512", "us")
    add("kernels.bs_scenario_us.w512", "us")
    for fn in ("exp", "log", "cnd", "invcnd"):
        add(f"vmath.{fn}_ns_per_elem", "ns")
    add("rng.mt19937_ns_per_num", "ns")
    add("rng.philox_ns_per_num", "ns")
    add("rng.normal_ns_per_num", "ns")
    add("rng.jump_ahead_us", "us")
    for k in KERNELS:
        add(f"plan.compile_ms.{k}", "ms")
    add("plan.compile_us.bs_w256", "us")
    add("plan.cache_hit_us", "us")
    add("plan.rebind_us.w256", "us")
    add("plan.run_floor_us", "us")
    add("plan.warm_alloc_bytes", "bytes")
    for b in ("serial", "thread", "process", "daemon"):
        add(f"parallel.dispatch_us.{b}", "us")
    add("parallel.ring_push_pop_ns", "ns")
    add("parallel.shm_stage_gb_per_s", "GB/s", "higher")
    add("parallel.daemon_start_ms", "ms")
    add("parallel.daemon_stop_ms", "ms")
    add("parallel.daemon_pin_ms", "ms")
    add("parallel.speedup_vs_serial", "x", "higher")
    add("parallel.shm_segments_leaked", "count")
    add("serve.pack_us.w256", "us")
    add("serve.scatter_us.w256", "us")
    add("serve.scatter_us.w256x6", "us")
    add("serve.request_construct_us", "us")
    add("serve.gateway_start_ms", "ms")
    add("serve.gateway_close_ms", "ms")
    add("serve.batch_requests_mean", "count", "higher")
    add("serve.batch_fill_share", "share", "higher")
    add("serve.plan_hit_share", "share", "higher")
    add("serve.plan_evictions", "count")
    add("serve.service_p50_ms", "ms")
    add("serve.queue_wait_p50_ms", "ms")
    add("serve.open.latency_p90_ms", "ms")
    add("serve.open.latency_p99_ms", "ms")
    add("serve.open.late_p99_ms", "ms")
    add("serve.open.within_limit_share", "share", "higher")
    add("serve.tcp_roundtrip_us", "us")
    add("tune.policy_lookup_us", "us")
    add("tune.policy_load_ms", "ms")
    add("results.digest_us.w4096", "us")
    add("registry.import_ms", "ms")
    add("host.yard_call_us", "us")
    add("host.yard_vec_us", "us")
    add("host.contended_share", "share")
    add("host.raw_latency_p50_ms", "ms")
    add("host.raw_ops_per_s", "1/s", "higher")
    add("host.cpu_ms_per_op", "ms")
    add("host.trace_overhead_share", "share")
    add("trace.spans", "count", "higher")
    return tuple(rows)


PER_LAYER = _per_layer()


def manifest() -> dict:
    """The ``BENCHMARK.json`` this spec describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [dict(m) for m in END_TO_END],
        "per_layer": [dict(m) for m in PER_LAYER],
    }

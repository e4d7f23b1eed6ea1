"""Command-line interface: ``python -m repro <command>``.

Commands
--------
experiment <id>         regenerate a paper table/figure (or ``all``)
figure <kernel>         the modeled stacked-bar chart for one kernel
profile <kernel>        VTune-style cycle profile on one platform
ninja                   the modeled Ninja-gap table
platforms               the simulated machines (+ optional host calibration)
price ...               price one contract with every applicable engine
daemon start|stop|status  manage the standing slab-worker daemon
gateway                 serve the micro-batching pricing gateway over TCP
lint                    AST conformance analysis of the tree (R001-R010)

The measured studies — one subcommand per entry of
:data:`repro.bench.suite.MEASURED`, all run by its ``run_measured``
(``--smoke`` for the CI size, ``--out`` for the ``BENCH_*.json``
artifact, exit 1 when the bench's gate fails):

sweep                   measure the Ninja gap: time every registered tier,
                        gate digests across backends and warm allocations
scaling                 measured core-scaling curves (workers x backends;
                        --crossover adds the pool-crossover table)
loadtest                open-loop gateway loadtest: capacity + latency grid
dse                     design-space sweep: modeled gap/crossover surfaces

Kernel choices everywhere are derived from :mod:`repro.registry`, so a
newly registered kernel shows up in ``figure``/``profile``/``sweep``
without touching this module.
"""

from __future__ import annotations

import argparse
import sys

from . import registry
from .bench import (format_profile, format_table, ladder_bars, run_all,
                    run_experiment)
from .bench.experiments import EXPERIMENTS
from .bench.suite import add_measured_parsers
from .errors import ReproError
from .kernels import build_model


def _cmd_experiment(args) -> int:
    from .bench import render
    if args.id == "all":
        for result in run_all():
            print(render(result, args.format))
            print()
        return 0
    print(render(run_experiment(args.id), args.format))
    return 0


def _cmd_figure(args) -> int:
    km = build_model(args.kernel)
    spec = registry.workload(args.kernel)
    print(ladder_bars(km, scale=spec.scale, unit=spec.unit))
    return 0


def _cmd_profile(args) -> int:
    km = build_model(args.kernel)
    print(format_profile(km, args.arch))
    return 0


def _cmd_ninja(args) -> int:
    print(format_table(run_experiment("ninja")))
    return 0


def _cmd_platforms(args) -> int:
    from .arch import PLATFORMS
    for p in PLATFORMS:
        print(p.describe())
    if args.host:
        from .arch import calibrate_host
        print(calibrate_host().describe())
    return 0


def _cmd_daemon(args) -> int:
    import json
    import subprocess
    import time

    from .errors import DaemonError, DaemonNotRunningError
    from .parallel.daemon import (_read_state, _sock_call, default_state_path,
                                  serve)

    state_path = args.state or default_state_path()

    if args.action == "serve":
        # Foreground host (what `start` launches detached).
        return serve(n_workers=args.workers, state_path=state_path)

    if args.action == "start":
        try:
            state = _read_state(state_path)
            _sock_call(state["socket"], "ping")
            print(f"daemon already running (pid {state['pid']}, "
                  f"{state['n_workers']} workers, state {state_path})")
            return 0
        except (DaemonNotRunningError, DaemonError):
            pass
        cmd = [sys.executable, "-m", "repro", "daemon", "serve",
               "--state", state_path]
        if args.workers:
            cmd += ["--workers", str(args.workers)]
        import os
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True, env=env)
        deadline = time.monotonic() + args.timeout
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                print(f"error: daemon host exited early "
                      f"(code {proc.returncode})", file=sys.stderr)
                return 1
            try:
                state = _read_state(state_path)
                reply = _sock_call(state["socket"], "ping")
                print(f"daemon started (pid {state['pid']}, "
                      f"{len(reply['workers'])} workers, "
                      f"abi v{reply['abi']}, state {state_path})")
                return 0
            except (DaemonNotRunningError, DaemonError):
                time.sleep(0.1)
        print(f"error: daemon did not come up within {args.timeout}s",
              file=sys.stderr)
        return 1

    if args.action == "stop":
        state = _read_state(state_path)
        _sock_call(state["socket"], "stop")
        deadline = time.monotonic() + args.timeout
        while time.monotonic() < deadline:
            try:
                import os
                os.kill(state["pid"], 0)
                time.sleep(0.1)
            except ProcessLookupError:
                break
        print(f"daemon stopped (pid {state['pid']})")
        return 0

    # status
    import os

    from .tune import PolicyTable, default_policy_path
    state = _read_state(state_path)
    status = _sock_call(state["socket"], "status")
    # This machine's dispatch policy table rides along: the daemon
    # itself is policy-agnostic (gateways resolve policies client-side),
    # so status reports what a policy-aware client would apply here.
    policy_path = default_policy_path()
    if os.path.exists(policy_path):
        table = PolicyTable.load(policy_path)
        policy = {"path": policy_path,
                  "fingerprint": table.fingerprint,
                  "entries": table.summary()}
    else:
        policy = {"path": policy_path, "mode": "fixed",
                  "entries": {}}
    print(json.dumps({"state_path": state_path, "pid": state["pid"],
                      **status, "policy": policy}, indent=2))
    return 0


def _cmd_gateway(args) -> int:
    from .serve.server import run_server

    return run_server(
        host=args.host, port=args.port, backend=args.backend,
        n_workers=args.workers, max_wait_s=args.max_wait_ms / 1e3,
        max_batch=args.max_batch, max_pending=args.max_pending,
        min_bucket=args.min_bucket)


def _cmd_price(args) -> int:
    import numpy as np

    from .kernels.binomial import price_basic
    from .kernels.crank_nicolson import solve
    from .kernels.monte_carlo import price_stream
    from .pricing import (ExerciseStyle, Option, OptionKind, bs_call,
                          bs_put)
    from .rng import MT19937, NormalGenerator

    kind = OptionKind.CALL if args.kind == "call" else OptionKind.PUT
    style = (ExerciseStyle.AMERICAN if args.american
             else ExerciseStyle.EUROPEAN)
    opt = Option(args.spot, args.strike, args.expiry, args.rate,
                 args.vol, kind, style)
    print(f"{style.value} {kind.value}: S={args.spot} K={args.strike} "
          f"T={args.expiry} r={args.rate} sigma={args.vol}")
    if style is ExerciseStyle.EUROPEAN:
        cf = bs_call if kind is OptionKind.CALL else bs_put
        print(f"  closed form:    "
              f"{float(cf(args.spot, args.strike, args.expiry, args.rate, args.vol)):.6f}")
        z = NormalGenerator(MT19937(args.seed)).normals(args.paths)
        # Puts are priced natively on the same paths: put-call parity
        # would reproduce the price but report the call's stderr (and
        # borrow the call's theta/rho for any Greek derived from it).
        mc = price_stream(np.array([args.spot]), np.array([args.strike]),
                          np.array([args.expiry]), args.rate, args.vol, z,
                          kind=args.kind)
        print(f"  Monte-Carlo:    {mc.price[0]:.6f} "
              f"± {1.96 * mc.stderr[0]:.6f}")
    print(f"  binomial tree:  {price_basic(opt, args.steps):.6f}")
    cn = solve(opt, n_points=args.grid, n_steps=max(100, args.steps // 8))
    print(f"  Crank-Nicolson: {cn.price:.6f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Financial analytics benchmark (SC 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiment", help="regenerate a paper artifact")
    p.add_argument("id", choices=sorted(EXPERIMENTS) + ["all"])
    p.add_argument("--format", default="text",
                   choices=["text", "json", "csv"])
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("figure", help="modeled stacked bars for a kernel")
    p.add_argument("kernel", choices=sorted(registry.kernels()))
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("profile", help="cycle profile for a kernel")
    p.add_argument("kernel", choices=sorted(registry.kernels()))
    p.add_argument("--arch", default="KNC", choices=["SNB-EP", "KNC"])
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("ninja", help="the modeled Ninja-gap table")
    p.set_defaults(fn=_cmd_ninja)

    p = sub.add_parser("platforms", help="describe the machines")
    p.add_argument("--host", action="store_true",
                   help="also calibrate and show this host")
    p.set_defaults(fn=_cmd_platforms)

    add_measured_parsers(sub)

    p = sub.add_parser(
        "daemon",
        help="manage the standing slab-worker daemon (ring dispatch)")
    p.add_argument("action",
                   choices=["start", "stop", "status", "serve"],
                   help="start: launch a detached daemon host; stop: "
                        "retire it; status: query it; serve: host in "
                        "the foreground")
    p.add_argument("--workers", type=int, default=None,
                   help="worker count (default: cpu_count)")
    p.add_argument("--state", default=None,
                   help="state-file path (default: "
                        "$REPRO_DAEMON_STATE or the per-user tempfile)")
    p.add_argument("--timeout", type=float, default=15.0,
                   help="seconds to wait for start/stop to take effect")
    p.set_defaults(fn=_cmd_daemon)

    p = sub.add_parser(
        "gateway",
        help="serve the async micro-batching pricing gateway over TCP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7101)
    p.add_argument("--backend", default="auto",
                   help="serial,thread,process,daemon,auto (auto "
                        "attaches to a running daemon, else serial)")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--max-wait-ms", type=float, default=0.0,
                   help="linger before a quiet tier's first flush "
                        "(default 0: dispatch is work-conserving and "
                        "batches form while the dispatch thread is busy; "
                        "set >0 to trade latency for fewer dispatches)")
    p.add_argument("--max-batch", type=int, default=4096,
                   help="max coalesced options per dispatch")
    p.add_argument("--max-pending", type=int, default=1024,
                   help="queued-request cap before shedding")
    p.add_argument("--min-bucket", type=int, default=64,
                   help="smallest canonical batch width")
    p.set_defaults(fn=_cmd_gateway)

    from .analysis.cli import add_lint_parser
    add_lint_parser(sub)

    p = sub.add_parser("price", help="price one contract, every engine")
    p.add_argument("--spot", type=float, default=100.0)
    p.add_argument("--strike", type=float, default=100.0)
    p.add_argument("--expiry", type=float, default=1.0)
    p.add_argument("--rate", type=float, default=0.05)
    p.add_argument("--vol", type=float, default=0.3)
    p.add_argument("--kind", choices=["call", "put"], default="call")
    p.add_argument("--american", action="store_true")
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--steps", type=int, default=1024)
    p.add_argument("--grid", type=int, default=192)
    p.add_argument("--seed", type=int, default=2012)
    p.set_defaults(fn=_cmd_price)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — normal shell usage.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The two serve workloads: traffic through a default ``PricingGateway``.

One process, one event loop, the gateway's own dispatch thread.  Each
round of a run has an **open-loop** slice (one Poisson process at a
fixed rate, every request timed from the instant it was *due*) and a
**closed-loop** slice (32 callers, each sending its next request when
the last one returned, counted over quiesced 0.1 s windows that yardstick
probes bracket).  ``serve_steady`` keeps four signatures warm;
``serve_churn`` spreads requests over more ``(signature, width)`` keys
than the plan cache holds.
"""

from __future__ import annotations

import asyncio
import hashlib
import sys
import time
from collections import OrderedDict

import numpy as np

from repro.errors import GatewayError, GatewayOverloadError
from repro.parallel import SlabExecutor
from repro.plan import PlanCache, compile_plan, plan_key
from repro.serve import (PricingGateway, PricingRequest, Staging,
                         adapter_for, bucket_width, serial_reference)

from . import census, spec
from .batch import flip_one_bit, rounds_and_budget
from .measure import Samples, median, percentile
from .spans import Recorder

#: Replay at most this many batches of a traced run, in the order the
#: gateway served them (the plan cache's behaviour depends on it).
REPLAY_BATCHES = 1500


def draw_requests(name: str, seed: int) -> list:
    """The workload's request stream, all of it, from the seed."""
    cfg = spec.SERVE[name]
    rng = np.random.default_rng(seed)
    tiers = cfg["tiers"]
    sigs = [(tiers[i % len(tiers)],
             0.02 + 0.005 * (i // len(tiers)),
             0.15 + 0.02 * (i // len(tiers)))
            for i in range(cfg["n_signatures"])]
    out = []
    for _ in range(cfg["n_requests"]):
        tier, rate, vol = sigs[int(rng.integers(len(sigs)))]
        if cfg["widths"] is None:
            lo, hi = cfg["options"]
        else:       # uniform over (signature, width) keys, not over sizes
            hi = int(cfg["widths"][int(rng.integers(len(cfg["widths"])))])
            lo = hi // 2 + 1
        n = int(rng.integers(lo, hi + 1))
        out.append(PricingRequest(
            S=rng.uniform(10.0, 200.0, n), X=rng.uniform(10.0, 200.0, n),
            T=rng.uniform(0.1, 3.0, n), rate=rate, vol=vol,
            kernel="black_scholes", tier=tier))
    return out


def results_digest(results) -> str:
    h = hashlib.md5()
    for res in results:
        h.update(res.digest().encode())
    return h.hexdigest()


class Traffic:
    """Counters and records of one run's serve phases."""

    def __init__(self, name: str, requests: list, gaps: np.ndarray):
        self.requests = requests
        self.gaps = gaps
        self.cursor = 0
        self.gap_cursor = 0
        self.sent = {"open": 0, "closed": 0}
        self.ok = {"open": 0, "closed": 0}
        self.shed = {"open": 0, "closed": 0}
        self.failed = {"open": 0, "closed": 0}
        self.kept = {"open": [], "closed": []}   # (request, digest)
        self.corrupt_next = False                # the self-test's fault
        self.open_records: list = []     # completion order
        self.window_medians: list = []   # open-loop, seconds
        self.quantity = f"{name}.closed_window"
        self.closed = {True: Samples(self.quantity),
                       False: Samples(self.quantity)}

    def next_request(self):
        req = self.requests[self.cursor % len(self.requests)]
        self.cursor += 1
        return req

    def next_gap(self) -> float:
        gap = self.gaps[self.gap_cursor % len(self.gaps)]
        self.gap_cursor += 1
        return float(gap)

    def keep(self, phase: str, req, res) -> None:
        """The first results of each phase, to verify after the run:
        the request and the result's digest (the result itself would
        pin its whole scatter block in memory)."""
        kept = self.kept[phase]
        if len(kept) < spec.KEPT_RESULTS:
            if self.corrupt_next:
                self.corrupt_next = False
                flip_one_bit(res[res.outputs[0]])
            kept.append((req, res.digest()))


async def open_slice(gw, traffic: Traffic, rate: float, windows: int,
                     window_s: float, rec) -> None:
    """``windows`` open-loop windows back to back.  One coroutine paces
    the arrivals; each request is its own task and is timed from its
    due time, so a stall shows in every request it delayed."""
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    span_s = windows * window_s
    by_window = [[] for _ in range(windows)]
    tasks = []
    t0 = clock()

    async def one(req, due: float) -> None:
        sent = clock()
        index = rec.open("open.request", key=traffic.sent["open"])
        traffic.sent["open"] += 1
        try:
            res = await gw.submit(req)
        except GatewayOverloadError:
            traffic.shed["open"] += 1
            return
        except GatewayError:
            traffic.failed["open"] += 1
            return
        finally:
            rec.close(index)
        done = clock()
        traffic.ok["open"] += 1
        traffic.keep("open", req, res)
        by_window[min(windows - 1, int((due - t0) / window_s))].append(
            done - due)
        traffic.open_records.append(
            (req, due, sent, done, res.batch_requests, res.batch_options))

    due = t0 + traffic.next_gap() * (1.0 / rate)
    while due < t0 + span_s:
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(traffic.next_request(), due)))
        due += traffic.next_gap() * (1.0 / rate)
    await asyncio.gather(*tasks)
    traffic.window_medians += [median(w) for w in by_window if w]


async def closed_window(gw, traffic: Traffic, window_s: float, rec,
                        parent: int) -> tuple:
    """One closed-loop window: every caller sends until the deadline,
    then the loop drains.  Returns ``(completions, seconds)`` from the
    first send to the last completion."""
    clock = time.perf_counter
    t0 = clock()
    deadline = t0 + window_s
    state = [0, t0]

    async def caller() -> None:
        while clock() < deadline:
            req = traffic.next_request()
            traffic.sent["closed"] += 1
            index = rec.open("closed.request", parent=parent)
            try:
                res = await gw.submit(req)
            except GatewayOverloadError:
                traffic.shed["closed"] += 1
                continue
            except GatewayError:
                traffic.failed["closed"] += 1
                continue
            finally:
                rec.close(index)
            state[0] += 1
            state[1] = clock()
            traffic.keep("closed", req, res)

    await asyncio.gather(*(caller() for _ in range(spec.CLOSED_CALLERS)))
    traffic.ok["closed"] += state[0]
    return state[0], state[1] - t0


async def closed_slice(run, gw, traffic: Traffic, until: float,
                       window_s: float) -> None:
    """Closed-loop windows until the clock reaches ``until`` (at least
    two).  In a traced run every other window records a span per
    request; the two halves give the tracing overhead."""
    rec = run.rec
    tracing = rec.enabled
    after = run.host.probe()
    n = 0
    while n < 2 or time.perf_counter() < until:
        rec.enabled = tracing and n % 2 == 0
        before = after
        with rec.span("closed.window") as parent:
            done, seconds = await closed_window(gw, traffic, window_s, rec,
                                                parent)
        after = run.host.probe()
        if done:
            traffic.closed[rec.enabled].add(seconds / done, before, after)
        n += 1
    rec.enabled = tracing


def batches_of(records: list) -> list:
    """The batches the gateway formed, rebuilt from what each result
    says about the batch it rode: requests of one batch complete back
    to back, so ``batch_requests`` consecutive completions whose sizes
    add up to ``batch_options`` are one batch.  Records that do not add
    up (interleaved completions) are left out."""
    out = []
    i = 0
    while i < len(records):
        n_req, n_opt = records[i][4], records[i][5]
        group = records[i:i + n_req]
        same = (len(group) == n_req
                and all(g[4] == n_req and g[5] == n_opt for g in group)
                and len({g[0].signature for g in group}) == 1
                and sum(g[0].n for g in group) == n_opt)
        if same:
            out.append(group)
            i += n_req
        else:
            i += 1
    return out


def replay(run, batches: list, gw_defaults: dict) -> list:
    """Do by hand, one span each, what the gateway does with a batch:
    pack, plan lookup or compile, run, scatter.  Returns the service
    seconds of each batch."""
    rec = run.rec
    clock = time.perf_counter
    stagings: OrderedDict = OrderedDict()
    cache = PlanCache(maxsize=gw_defaults["plan_cache_size"])
    service = []
    with SlabExecutor("serial") as ex:
        for b, group in enumerate(batches):
            requests = [g[0] for g in group]
            sig = requests[0].signature
            kernel, tier = sig[0], sig[1]
            t0 = clock()
            with rec.span("replay.batch", key=b):
                width = bucket_width(sum(r.n for r in requests),
                                     gw_defaults["min_bucket"],
                                     gw_defaults["max_batch"])
                with rec.span("serve.staging"):
                    staging = stagings.get((sig, width))
                    if staging is None:
                        staging = Staging(adapter_for(kernel, tier), sig,
                                          width)
                        stagings[(sig, width)] = staging
                        while len(stagings) > gw_defaults["max_stagings"]:
                            _, old = stagings.popitem(last=False)
                            cache.pop(_key(old, ex))
                    else:
                        stagings.move_to_end((sig, width))
                with rec.span("serve.pack"):
                    offsets = staging.pack(requests)
                with rec.span("plan.lookup"):
                    key = _key(staging, ex)
                    plan = cache.get(key)
                if plan is None:
                    with rec.span("plan.compile"):
                        plan = compile_plan(kernel, tier, staging.payload,
                                            backend="serial", executor=ex)
                        cache.put(key, plan)
                with rec.span("plan.run"):
                    if staging.adapter.needs_rebind \
                            or plan.payload is not staging.payload:
                        value = plan.run(staging.payload)
                    else:
                        value = plan.run()
                with rec.span("serve.scatter"):
                    staging.scatter(value, offsets)
            service.append(clock() - t0)
        cache.clear()
    return service


def _key(staging, ex) -> tuple:
    kernel, tier = staging.signature[0], staging.signature[1]
    return plan_key(kernel, tier, "serial", ex.n_workers, staging.payload)


class ServeWorkload:
    pin_cpu = True
    name = ""

    def __init__(self, seed: int):
        cfg = spec.SERVE[self.name]
        self.rate = cfg["rate"]
        self.window_s = cfg["closed_window_s"]
        self.requests = draw_requests(self.name, seed)
        gaps = np.random.default_rng(seed + 1).exponential(
            1.0, int(self.rate * 90) + 1024)
        self.traffic = Traffic(self.name, self.requests, gaps)

    def setup_inputs(self):
        return self.requests[:spec.CLOSED_CALLERS]

    @staticmethod
    def setup_round(requests, mark) -> str:
        sys.setswitchinterval(0.001)

        async def go():
            gw = PricingGateway(backend="serial")
            await gw.start()
            mark("build")
            try:
                results = await asyncio.gather(
                    *(gw.submit(r) for r in requests))
                mark("first_result")
            finally:
                await gw.close()
            return results_digest(results)

        return asyncio.run(go())

    def measure(self, run, rounds: int | None = None,
                budget: float | None = None) -> None:
        """The whole workload; with ``rounds``/``budget`` given, the
        short form the layer probes run (no set-up rounds, only the
        ``serve.*`` traffic figures)."""
        as_probe = rounds is not None
        if not as_probe:
            run.expect_setup_digest(results_digest(
                serial_reference(r) for r in self.setup_inputs()))
            rounds, budget = rounds_and_budget(run)
        old = sys.getswitchinterval()
        sys.setswitchinterval(0.001)    # as repro.serve.server does
        try:
            stats, cpu_s = asyncio.run(
                self._drive(run, rounds, budget, as_probe))
        finally:
            sys.setswitchinterval(old)
        self._verify(run)
        self._report(run, stats, cpu_s, as_probe)

    async def _drive(self, run, rounds: int, budget: float, as_probe: bool):
        traffic = self.traffic
        slice_s = budget / rounds
        windows = 2 if slice_s >= 4.0 else 1
        open_window_s = min(spec.OPEN_WINDOW_S, slice_s / 4.0)
        async with PricingGateway(backend="serial") as gw:
            self.gw_defaults = {
                "plan_cache_size": gw.stats["plan_cache"]["maxsize"],
                "min_bucket": gw.min_bucket, "max_batch": gw.max_batch,
                "max_stagings": gw.max_stagings}
            # Warm both phases' plans; nothing here is kept.
            warm = Traffic(self.name, self.requests, traffic.gaps)
            warm_rec = Recorder(enabled=False)
            await closed_window(gw, warm, 0.2, warm_rec, -1)
            await open_slice(gw, warm, self.rate, 1, 0.2, warm_rec)
            traffic.cursor = warm.cursor
            gw.reset_stats()
            traffic.corrupt_next = run.inject == "bitflip"
            hits0 = dict(gw.stats["plan_cache"])
            cpu0 = census.cpu_seconds()
            t0 = time.perf_counter() if as_probe else run.t_start
            for r in range(rounds):
                if not as_probe:
                    # Blocks the loop; the gateway is idle meanwhile.
                    run.setup_round()
                await open_slice(gw, traffic, self.rate, windows,
                                 open_window_s, run.rec)
                await closed_slice(run, gw, traffic,
                                   t0 + slice_s * (r + 1), self.window_s)
            cpu_s = census.cpu_seconds() - cpu0
            stats = gw.stats
            stats["plan_cache_before"] = hits0
            run.sample_rss()
        return stats, cpu_s

    def _verify(self, run) -> None:
        traffic = self.traffic
        for phase, kept in traffic.kept.items():
            bad = sum(digest != serial_reference(req).digest()
                      for req, digest in kept)
            if bad:
                run.failed += bad
                run.wrong(f"{phase} loop: {bad} of {len(kept)} kept results "
                          f"differ from serial_reference")
            run.notes.append(
                f"{phase}: sent={traffic.sent[phase]} ok={traffic.ok[phase]}"
                f" shed={traffic.shed[phase]} failed={traffic.failed[phase]}"
                f" verified={len(kept)}")
        run.attempted += sum(traffic.sent.values())
        run.failed += sum(traffic.shed.values()) \
            + sum(traffic.failed.values())

    def _report(self, run, stats: dict, cpu_s: float, as_probe: bool) -> None:
        traffic = self.traffic
        closed = Samples(traffic.quantity)
        for part in traffic.closed.values():
            closed.extend(part)
        latency = median(traffic.window_medians)
        if not as_probe:
            run.quantities["closed_window"] = closed
            run.detail["raw_ops_per_s"] = 1.0 / median(closed.raw)
            run.detail["open_window_medians_ms"] = [
                m * 1e3 for m in traffic.window_medians]
        if not run.traced:
            run.put("latency_p50_ms", latency * 1e3,
                    len(traffic.window_medians))
            run.put("ops_per_s", 1.0 / closed.median_s(), len(closed))
            return
        records = traffic.open_records
        lat = [r[3] - r[1] for r in records]
        late = [r[2] - r[1] for r in records]
        missed = traffic.sent["open"] - len(records)
        within = sum(v * 1e3 <= spec.LATENCY_LIMIT_MS for v in lat)
        run.put("serve.open.latency_p90_ms", percentile(lat, 90) * 1e3,
                len(lat))
        run.put("serve.open.latency_p99_ms", percentile(lat, 99) * 1e3,
                len(lat))
        run.put("serve.open.late_p99_ms", percentile(late, 99) * 1e3,
                len(late))
        run.put("serve.open.within_limit_share",
                within / (len(lat) + missed), len(lat) + missed)
        batches = batches_of(records)
        widths = [bucket_width(g[0][5], self.gw_defaults["min_bucket"],
                               self.gw_defaults["max_batch"])
                  for g in batches]
        run.put("serve.batch_requests_mean",
                sum(len(g) for g in batches) / len(batches), len(batches))
        run.put("serve.batch_fill_share",
                sum(g[0][5] for g in batches) / sum(widths), len(batches))
        cache, before = stats["plan_cache"], stats["plan_cache_before"]
        hits = cache["hits"] - before["hits"]
        misses = cache["misses"] - before["misses"]
        run.put("serve.plan_hit_share", hits / max(1, hits + misses),
                hits + misses)
        # Every miss compiles a plan into a bounded cache, so the plans
        # retired (LRU eviction, or with their evicted staging) are the
        # misses that did not grow it.
        run.put("serve.plan_evictions",
                misses - (cache["size"] - before["size"]), hits + misses)
        batches = batches[:REPLAY_BATCHES]
        service = replay(run, batches, self.gw_defaults)
        waits = [(g[3] - g[1]) - s
                 for group, s in zip(batches, service) for g in group]
        run.put("serve.service_p50_ms", median(service) * 1e3, len(service))
        run.put("serve.queue_wait_p50_ms", median(waits) * 1e3, len(waits))
        if as_probe:
            return
        replayed = [g[3] - g[1] for group in batches for g in group]
        run.detail["reconcile_ratio"] = (
            (median(service) + median(waits)) / median(replayed))
        run.put("host.raw_latency_p50_ms", latency * 1e3,
                len(traffic.window_medians))
        run.put("host.raw_ops_per_s", 1.0 / median(closed.raw), len(closed))
        run.put("host.cpu_ms_per_op",
                cpu_s / max(1, sum(traffic.ok.values())) * 1e3,
                sum(traffic.ok.values()))
        run.put("host.trace_overhead_share",
                1.0 - traffic.closed[False].median_s()
                / traffic.closed[True].median_s(),
                len(traffic.closed[False]))


class ServeSteady(ServeWorkload):
    name = "serve_steady"


class ServeChurn(ServeWorkload):
    name = "serve_churn"

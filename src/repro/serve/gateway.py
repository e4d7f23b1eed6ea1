"""The asyncio pricing gateway: accept, coalesce, dispatch, scatter.

Control flow (all on one event loop, plus exactly one dispatch thread):

* :meth:`PricingGateway.submit` validates a request, appends it to its
  tier's queue — one per ``(kernel, tier)``; rate and vol travel with
  the data, so requests of any signature share it — and awaits a
  future.  Dispatch is **work-conserving**: the first request of a
  quiet tier puts a flush job straight on the flush queue, so an idle
  dispatch thread starts it on the next loop iteration, and batches
  form from whatever arrives while an earlier batch is in flight — the
  queueing between ``submit``, the dispatcher task and the one dispatch
  thread does the coalescing.  ``max_wait_s`` is an opt-in *linger*:
  non-zero, the first request of a quiet tier instead arms a timer and
  the job is queued when it fires (or when the queue reaches ``max_batch``
  options / ``max_batch_requests`` requests, whichever is first) —
  fewer, wider dispatches for up to ``max_wait_s`` more latency.  The
  default ``0.0`` never touches the timer heap.
* Flush jobs land on one priority queue keyed by the **oldest pending
  request's arrival** (plus the linger) and drained by a single
  dispatcher task, which prices *one* batch per job and re-queues the
  tier if requests remain: under backlog the oldest request is
  served first, and a tier that keeps receiving traffic cannot
  starve an older flush of another.  Requests whose caller was
  cancelled while they waited are dropped when their batch is taken,
  not priced, and a tier's queue is deleted as soon as it is empty
  and idle.
* The dispatcher packs the batch into its canonical-width
  :class:`~.batcher.Staging` (whose arrays are plan-bound — see
  :mod:`~.batcher`), then runs the compiled plan on a **single
  dedicated dispatch thread** via ``run_in_executor``: the event loop
  keeps accepting while the batch prices, and the one-thread pool keeps
  the daemon backend's SPSC rings single-producer.  Ring backpressure
  (a full submit ring blocks the push) therefore stalls only the
  dispatch thread, never the accept path; gateway-level backpressure is
  the ``max_pending`` cap, beyond which new requests are shed with
  :class:`~repro.errors.GatewayOverloadError`.
* Plans come from a gateway-owned :class:`~repro.plan.PlanCache`: one
  compile (and one daemon pin) per ``(kernel, tier, width)`` — at most
  three tiers × seven power-of-two widths under the defaults, however
  many signatures the traffic carries — LRU-retired should a
  configuration exceed the cache; eviction closes the plan, which
  unpins its daemon dispatch and releases its segments.  A plan's
  inline-vs-pool choice is the executor's ``min_parallel_bytes`` as it
  was built; the gateway never changes it.
* :meth:`PricingGateway.close` drains gracefully: intake stops
  (:class:`~repro.errors.GatewayClosedError`), every queued request is
  flushed regardless of deadline, the dispatcher finishes its backlog,
  and only then do plans, stagings, the dispatch thread and the
  executor shut down.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor

from ..errors import (ConfigurationError, GatewayClosedError, GatewayError,
                      GatewayOverloadError)
from ..plan import PlanCache, compile_plan, plan_key
from .batcher import Staging, bucket_width
from .request import PricingRequest
from .stats import latency_summary
from .workloads import adapter_for

#: Retain at most this many per-batch service-time samples for stats.
_SERVICE_SAMPLES = 20_000


class _TierQueue:
    """Pending requests of one ``(kernel, tier)``, of any signature."""

    __slots__ = ("items", "n_options", "timer", "enqueued")

    def __init__(self):
        self.items = deque()     # (request, future, arrival)
        self.n_options = 0
        self.timer = None        # armed linger TimerHandle
        self.enqueued = False    # a flush job is queued or in flight


class PricingGateway:
    """Dynamic micro-batching front end over the plan/daemon stack.

    Use as an async context manager (or ``await start()`` /
    ``await close()``).  Without ``executor=`` the gateway builds and
    owns a :class:`~repro.parallel.SlabExecutor` of ``backend`` (a
    ``daemon`` one forks its own worker fleet) and closes it on
    :meth:`close`.
    """

    def __init__(self, *, backend: str = "serial",
                 n_workers: int | None = None,
                 slab_bytes: int | None = None,
                 max_wait_s: float = 0.0,
                 max_batch: int = 4096,
                 max_batch_requests: int | None = None,
                 min_bucket: int = 64,
                 max_pending: int = 1024,
                 plan_cache_size: int = 32,
                 max_stagings: int = 32,
                 executor=None):
        if max_wait_s < 0:
            raise ConfigurationError("max_wait_s must be >= 0")
        if max_batch < 1 or min_bucket < 1 or min_bucket > max_batch:
            raise ConfigurationError(
                "need 1 <= min_bucket <= max_batch")
        if max_batch_requests is not None and max_batch_requests < 1:
            raise ConfigurationError("max_batch_requests must be >= 1")
        if max_pending < 1:
            raise ConfigurationError("max_pending must be >= 1")
        self.backend = backend
        self.n_workers = n_workers
        self.slab_bytes = slab_bytes
        self.max_wait_s = float(max_wait_s)
        self.max_batch = int(max_batch)
        self.max_batch_requests = max_batch_requests
        self.min_bucket = int(min_bucket)
        self.max_pending = int(max_pending)
        self.max_stagings = int(max_stagings)
        self._cache = PlanCache(maxsize=plan_cache_size)
        # The cache is touched from the event loop (staging eviction),
        # the dispatch thread (warm lookup/compile), and the teardown
        # helper thread; the LRU's internal OrderedDict moves make
        # even get() a mutation, so every access takes this lock.
        self._cache_lock = threading.Lock()
        self._stagings: OrderedDict = OrderedDict()
        self._queues: dict = {}
        self._queued_requests = 0
        self._seq = 0
        self._executor = executor
        self._owns_executor = executor is None
        if executor is not None:
            self.backend = executor.backend
        self._pool = None
        self._loop = None
        self._flush_q = None
        self._dispatcher = None
        self._closed = False
        self._started = False
        self._stat = {"requests": 0, "completed": 0, "shed": 0,
                      "failed": 0, "cancelled": 0, "batches": 0}
        self._batch_requests_hist: dict = {}
        self._batch_options_hist: dict = {}
        self._service_s: list = []

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "PricingGateway":
        if self._started:
            raise ConfigurationError("gateway already started")
        self._loop = asyncio.get_running_loop()
        from ..parallel.slab import SlabExecutor
        if self._executor is None:
            self._executor = SlabExecutor(
                self.backend, n_workers=self.n_workers,
                slab_bytes=self.slab_bytes)
        self._pool = ThreadPoolExecutor(max_workers=1,
                                        thread_name_prefix="repro-gateway")
        self._flush_q = asyncio.PriorityQueue()
        self._dispatcher = self._loop.create_task(self._dispatch_loop())
        self._started = True
        return self

    async def close(self) -> None:
        """Graceful drain: refuse new work, price everything queued,
        then release plans (daemon unpins), stagings, thread, pool."""
        if not self._started or self._closed:
            self._closed = True
            return
        self._closed = True
        # Every live queue either holds requests or has a job in flight
        # (which re-queues itself while requests remain).
        for key, st in self._queues.items():
            if st.items:
                self._enqueue_flush(key, st)
        # The stop sentinel sorts after every real job, re-queued ones
        # included.
        self._seq += 1
        self._flush_q.put_nowait((float("inf"), self._seq, None))
        try:
            await self._dispatcher
        finally:
            # Teardown even when the dispatcher died mid-drain —
            # otherwise a crashed drain leaks the pool thread and
            # every daemon pin.  Plan close (unpins over the control
            # pipes) and pool shutdown (thread join) both block, so
            # they run off the loop; stagings are plain arrays and
            # clear inline.
            self._stagings.clear()
            await self._loop.run_in_executor(None,
                                             self._teardown_blocking)

    def _teardown_blocking(self) -> None:
        """Blocking tail of close(); runs on a helper thread."""
        with self._cache_lock:
            self._cache.clear()
        self._pool.shutdown(wait=True)
        if self._owns_executor:
            self._executor.close()

    async def __aenter__(self) -> "PricingGateway":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- intake --------------------------------------------------------
    async def submit(self, request: PricingRequest):
        """Queue one request and await its scattered result."""
        if self._closed or not self._started:
            raise GatewayClosedError(
                "gateway is draining or not started")
        adapter_for(request.kernel, request.tier)  # reject early
        if request.n > self.max_batch:
            raise GatewayError(
                f"request of {request.n} options exceeds "
                f"max_batch={self.max_batch}; split it client-side")
        if self._queued_requests >= self.max_pending:
            self._stat["shed"] += 1
            raise GatewayOverloadError(
                f"{self._queued_requests} requests queued "
                f"(max_pending={self.max_pending}); retry later")
        self._stat["requests"] += 1
        key = (request.kernel, request.tier)
        st = self._queues.get(key)
        if st is None:
            st = self._queues[key] = _TierQueue()
        fut = self._loop.create_future()
        st.items.append((request, fut, self._loop.time()))
        st.n_options += request.n
        self._queued_requests += 1
        full = (st.n_options >= self.max_batch
                or (self.max_batch_requests is not None
                    and len(st.items) >= self.max_batch_requests))
        if full or not self.max_wait_s:
            self._enqueue_flush(key, st)
        elif st.timer is None and not st.enqueued:
            st.timer = self._loop.call_later(
                self.max_wait_s, self._deadline_fired, key)
        return await fut

    def _deadline_fired(self, key) -> None:
        st = self._queues.get(key)
        if st is None:
            return
        st.timer = None
        self._enqueue_flush(key, st)

    def _enqueue_flush(self, key, st: _TierQueue) -> None:
        if st.timer is not None:
            st.timer.cancel()
            st.timer = None
        if not st.enqueued:
            st.enqueued = True
            self._put_job(key, st)

    def _put_job(self, key, st: _TierQueue) -> None:
        """Queue one flush of ``key``, ordered by when its oldest
        pending request arrived (plus the linger it was promised)."""
        self._seq += 1
        self._flush_q.put_nowait(
            (st.items[0][2] + self.max_wait_s, self._seq, key))

    # -- dispatch ------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            _due, _seq, key = await self._flush_q.get()
            if key is None:
                return
            st = self._queues[key]
            batch = self._take_batch(st)
            if batch:
                await self._price_batch(key, batch)
            # One batch per job: what arrived meanwhile goes back on
            # the flush queue behind older flushes of other signatures.
            # No await between this check and the bookkeeping, so a
            # submit landing afterwards sees a quiet signature and
            # queues its own job: no lost wake-ups.
            if st.items:
                self._put_job(key, st)
            else:
                del self._queues[key]

    def _take_batch(self, st: _TierQueue) -> list:
        """Slice the longest prefix fitting the batch caps, dropping
        requests whose caller was cancelled while they waited; empty
        only when every queued request was."""
        batch = []
        n_opts = 0
        max_reqs = self.max_batch_requests or len(st.items)
        while st.items and len(batch) < max_reqs:
            req, fut, _arrival = st.items[0]
            cancelled = fut.cancelled()
            if batch and not cancelled \
                    and n_opts + req.n > self.max_batch:
                break
            st.items.popleft()
            st.n_options -= req.n
            self._queued_requests -= 1
            if cancelled:
                self._stat["cancelled"] += 1
            else:
                batch.append((req, fut))
                n_opts += req.n
        return batch

    async def _price_batch(self, key, batch) -> None:
        requests = [req for req, _ in batch]
        total = sum(r.n for r in requests)
        try:
            width = bucket_width(total, self.min_bucket, self.max_batch)
            staging = self._get_staging(key, width)
            offsets = staging.pack(requests)
            t0 = time.perf_counter()
            value = await self._loop.run_in_executor(
                self._pool, self._run_plan, staging)
            service = time.perf_counter() - t0
            results = staging.scatter(value, offsets)
        except Exception as exc:                  # deliver, don't die
            self._stat["failed"] += len(batch)
            for _, fut in batch:
                if not fut.done():
                    fut.set_exception(exc)
            return
        self._stat["batches"] += 1
        self._stat["completed"] += len(batch)
        b = len(batch)
        self._batch_requests_hist[b] = \
            self._batch_requests_hist.get(b, 0) + 1
        self._batch_options_hist[total] = \
            self._batch_options_hist.get(total, 0) + 1
        if len(self._service_s) < _SERVICE_SAMPLES:
            self._service_s.append(service)
        for (_, fut), res in zip(batch, results):
            if not fut.done():
                fut.set_result(res)

    def _get_staging(self, key, width: int) -> Staging:
        slot = (key, width)
        staging = self._stagings.get(slot)
        if staging is not None:
            self._stagings.move_to_end(slot)
            return staging
        staging = Staging(adapter_for(*key), key, width)
        self._stagings[slot] = staging
        while len(self._stagings) > self.max_stagings:
            _, old = self._stagings.popitem(last=False)
            # Retire the evicted shape's plan with it: close() unpins
            # its daemon dispatch and releases its shm segments.
            with self._cache_lock:
                self._cache.pop(self._plan_key(old))
        return staging

    def _plan_key(self, staging: Staging) -> tuple:
        return plan_key(staging.adapter.kernel, staging.adapter.tier,
                        self.backend, self._executor.n_workers,
                        staging.payload)

    def _run_plan(self, staging: Staging):
        """Dispatch-thread body: warm plan lookup + fused batch run."""
        key = self._plan_key(staging)
        with self._cache_lock:
            plan = self._cache.get(key)
        if plan is None:
            plan = compile_plan(staging.adapter.kernel,
                                staging.adapter.tier, staging.payload,
                                backend=self.backend,
                                executor=self._executor)
            with self._cache_lock:
                plan = self._cache.setdefault(key, plan)
        if plan.payload is not staging.payload:
            # A cached plan that outlived its staging (LRU
            # interleaving) copies the new arrays into its own.
            return plan.run(staging.payload)
        return plan.run()

    # -- observability -------------------------------------------------
    def reset_stats(self) -> None:
        """Zero the counters and histograms (plans and stagings stay
        warm).  Benchmarks call this after warmup dispatches so the
        one-time first-kernel-run cost never skews service
        percentiles."""
        for key in self._stat:
            self._stat[key] = 0
        self._batch_requests_hist.clear()
        self._batch_options_hist.clear()
        self._service_s.clear()

    @property
    def stats(self) -> dict:
        # Keyed by queue — ``(kernel, tier)`` — under its historical name.
        queued = {str(k): st.n_options
                  for k, st in self._queues.items() if st.items}
        return {
            **self._stat,
            "queued_requests": self._queued_requests,
            "queued_options_by_signature": queued,
            "batch_requests_hist": {
                str(k): self._batch_requests_hist[k]
                for k in sorted(self._batch_requests_hist)},
            "batch_options_hist": {
                str(k): self._batch_options_hist[k]
                for k in sorted(self._batch_options_hist)},
            "service": latency_summary(self._service_s, scale=1e3,
                                       suffix="_ms"),
            "plan_cache": self._cache.stats,
            "stagings": len(self._stagings),
            "backend": self.backend,
        }

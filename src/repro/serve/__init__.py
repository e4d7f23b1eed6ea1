"""Async pricing gateway: dynamic micro-batching over the plan stack.

The paper's throughput story is about width: every layer below this one
— fused slab kernels (PR 1), shared-memory staging (PR 3), compiled
plans (PR 5), the ring-dispatch daemon (PR 6), multi-output risk slabs
(PR 7) — exists to keep the hardware saturated with wide contiguous
batches.  But they all model *one caller*.  Production pricing traffic
is the opposite shape: many concurrent users, each asking for a handful
of options at a time (the streaming-Greeks services of arXiv:2212.13977
/ 2206.03719 are built around exactly this mismatch).

This package closes the gap inference-server style:

* :class:`~.request.PricingRequest` — one user's small slab
  (kernel, tier, contracts, shared rate/vol).
* :class:`~.gateway.PricingGateway` — an asyncio front end that queues
  requests by ``(kernel, tier)`` (rate and vol are per-option columns,
  so any signatures mix), coalesces whatever arrives while the
  dispatch thread is busy into one canonical-width batch (up to
  ``max_batch``; ``max_wait`` is an opt-in linger), prices
  the fused batch through a cached :class:`~repro.plan.ExecutionPlan`
  on any backend (daemon rings included), and scatters per-request
  :class:`~.request.GatewayResult` views back to each awaiting caller.
* :mod:`~.server` — a JSON-lines TCP wrapper
  (``python -m repro gateway``).
* :mod:`~.loadgen` — open-loop Poisson load generation for the
  serving bench (``python -m repro loadtest`` →  ``BENCH_serving.json``).

Only *elementwise* tiers are batchable (see :mod:`~.workloads`): their
per-option results are independent of batch geometry, which is what
makes the scattered results **bit-identical** to pricing each request
alone — the correctness contract the loadtest verifies by digest.
"""

from .batcher import Staging, bucket_width
from .gateway import PricingGateway
from .loadgen import poisson_arrivals, run_open_loop, synth_requests
from .request import GatewayResult, PricingRequest
from .workloads import TierAdapter, adapter_for, serial_reference

__all__ = [
    "PricingRequest", "GatewayResult", "PricingGateway",
    "Staging", "bucket_width",
    "TierAdapter", "adapter_for", "serial_reference",
    "synth_requests", "poisson_arrivals", "run_open_loop",
]

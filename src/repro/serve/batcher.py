"""Canonical-width staging: pack request segments, scatter results.

The batcher's whole trick is *shape reuse*.  A compiled plan is keyed
by batch width, so pricing every coalesced batch at its exact total
width would compile (and, on the daemon backend, pin) a new plan per
distinct total — plan-cache churn instead of amortization.  Instead,
totals are bucketed up to a **canonical power-of-two width**: a handful
of widths cover every load level, each width's plan compiles once, its
daemon dispatch pins once, and every later batch at that width is pure
descriptor replay.

A :class:`Staging` owns the payload for one ``(kernel, tier, width)``:
its SOA arrays — S/X/T and the per-option rate/vol columns — are the
*plan-bound* arrays, so :meth:`pack` writes request segments (each
with its own rate/vol) straight into the memory the compiled dispatch
reads —
the in-process backends price the very same buffers, and the
out-of-process backends bulk-copy them into their staged
:class:`~repro.parallel.shm.ShmArena` segments on dispatch (the
copy-once/slice-many path from PR 3).  No per-request staging, no
payload rebuild, no plan rebind.

The pad tail beyond the packed total keeps its previous (positive)
contents and is priced wastefully — bounded by 2x thanks to the
power-of-two bucketing, and irrelevant to correctness because every
supported tier is elementwise (see :mod:`.workloads`).
"""

from __future__ import annotations

import numpy as np

from ..errors import GatewayError
from ..results import as_result_slab
from .request import GatewayResult
from .workloads import TierAdapter, make_staging_payload


def bucket_width(total: int, min_bucket: int = 64,
                 max_batch: int = 4096) -> int:
    """The canonical width for a batch of ``total`` options: the next
    power of two, floored at ``min_bucket`` (tiny batches share one
    plan) and clamped to ``max_batch`` (the largest slab the gateway
    dispatches; callers split totals beyond it)."""
    if total < 1:
        raise GatewayError("batch total must be >= 1")
    if total > max_batch:
        raise GatewayError(
            f"batch of {total} options exceeds max_batch={max_batch}")
    width = 1 << (max(min_bucket, total) - 1).bit_length()
    return min(width, max_batch)


class Staging:
    """Packing/scatter state for one ``(kernel, tier, width)``.

    ``signature`` is ``(kernel, tier)``, optionally followed by the
    ``(rate, vol)`` the parameter columns start filled with.
    """

    __slots__ = ("adapter", "signature", "width", "payload", "batch",
                 "packs")

    def __init__(self, adapter: TierAdapter, signature: tuple,
                 width: int):
        self.adapter = adapter
        self.signature = signature
        self.width = int(width)
        self.payload = make_staging_payload(signature, self.width)
        self.batch = self.payload["soa"]
        self.packs = 0

    def pack(self, requests) -> list:
        """Write each request's contracts into the staged arrays,
        back-to-back from offset 0; returns the ``[a, b)`` segment per
        request.  The caller guarantees the total fits the width."""
        S = self.batch.S
        X = self.batch.X
        T = self.batch.T
        rate = self.batch.rate
        vol = self.batch.vol
        offsets = []
        cur = 0
        for req in requests:
            m = req.n
            end = cur + m
            if end > self.width:
                raise GatewayError(
                    f"packed {end} options into width-{self.width} "
                    f"staging; flush split is broken")
            S[cur:end] = req.S
            X[cur:end] = req.X
            T[cur:end] = req.T
            rate[cur:end] = req.rate
            vol[cur:end] = req.vol
            offsets.append((cur, end))
            cur = end
        self.packs += 1
        return offsets

    def scatter(self, value, offsets) -> list:
        """Slice the fused batch's result back per request.

        One bulk copy moves the *used* region of each output out of the
        plan's arena (whose buffers the next flush overwrites) into a
        batch-owned contiguous block; each request then gets zero-copy
        ``(k, m)`` views of that block.  Views keep the block alive, so
        results stay valid however long callers hold them.
        """
        slab = as_result_slab(value, self.adapter.outputs)
        total = offsets[-1][1] if offsets else 0
        n_req = len(offsets)
        blocks = []
        for name in self.adapter.outputs:
            vec = np.asarray(slab[name])
            if vec.shape[0] % self.width:
                raise GatewayError(
                    f"output {name!r} length {vec.shape[0]} is not a "
                    f"multiple of staging width {self.width}")
            k = vec.shape[0] // self.width
            blocks.append((name, k,
                           vec.reshape(k, self.width)[:, :total].copy()))
        results = []
        for a, b in offsets:
            outputs = {
                name: (block[:, a:b] if k > 1 else block[0, a:b])
                for name, k, block in blocks
            }
            results.append(GatewayResult(outputs, b - a,
                                         batch_options=total,
                                         batch_requests=n_req))
        return results

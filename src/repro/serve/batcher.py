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
*plan-bound* arrays, so :meth:`~Staging.pack` writes request segments
(each with its own rate/vol) straight into the memory the compiled
dispatch reads.  In process the plan prices the very same buffers.  Out
of process a plan owns a shared-memory copy of its payload, and the
gateway binds the staging to it (:meth:`~Staging.bind`) once the plan
is compiled, so every later batch is packed into the memory the workers
read in place: one copy per batch, never a second.

Both halves are per batch, not per request: from
:data:`PACK_LOOP_BELOW` requests up :meth:`~Staging.pack` is one
concatenation per S/X/T column and one repeat-by-sizes of the rate/vol
pairs (fewer requests are cheaper as five slice writes each), and
:meth:`~Staging.scatter` is one bulk copy of every output's used
columns into one block, whatever the number of requests (the paper's
Sec. IV step from a per-element outer loop to whole vectors, taken on
the host side).

:meth:`~Staging.pack` records the packed total, and the gateway runs
the plan with it as the live length (``plan.run(n=total)``): the packed
prefix is priced, rounded up to the end of its live step (a sixteenth
of the width), and the rest of the pad is not.  Out of process the slab
that straddles the total still runs whole.  The pad that is priced
keeps earlier (positive) contents and is harmless because every
supported tier is elementwise (see :mod:`.workloads`).
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from ..errors import GatewayError
from ..results import as_result_slab
from .request import GatewayResult
from .workloads import TierAdapter, make_staging_payload


#: Below this many requests :meth:`Staging.pack` writes each request's
#: five slices instead of making the batch calls (the measured
#: break-even is in :meth:`Staging.pack`).
PACK_LOOP_BELOW = 7


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
    ``total`` is the number of options the last :meth:`pack` wrote:
    the live length to price.  ``batch`` is the SOA batch :meth:`pack`
    writes: the staging's own ``payload["soa"]`` until :meth:`bind`
    points it at a compiled plan's payload.  ``key`` is free for the
    owner to file the staging's plan under (the gateway's plan-cache
    key, computed once).
    """

    __slots__ = ("adapter", "signature", "width", "payload", "batch",
                 "packs", "total", "plan", "key", "_columns")

    def __init__(self, adapter: TierAdapter, signature: tuple,
                 width: int):
        self.adapter = adapter
        self.signature = signature
        self.width = int(width)
        self.payload = make_staging_payload(signature, self.width)
        self.packs = 0
        self.total = 0
        self.key = None
        self.bind(None)

    def bind(self, plan) -> None:
        """Pack into ``plan``'s payload from now on (``None``: into the
        staging's own).  In process a plan prices the payload it was
        compiled on, so this changes nothing; out of process a plan
        owns a shared-memory copy, and packing straight into it spares
        the batch a second copy.  The caller must re-bind before a
        pack once ``plan`` may have been closed."""
        self.plan = plan
        batch = self.batch = \
            (self.payload if plan is None else plan.payload)["soa"]
        self._columns = (batch.S, batch.X, batch.T, batch.rate, batch.vol)

    def pack(self, requests) -> list:
        """Write the requests' contracts into :attr:`batch`,
        back-to-back from offset 0, and record their total; returns the
        ``[a, b)`` segment per request.  From :data:`PACK_LOOP_BELOW`
        requests up, a fixed number of numpy calls whatever the number
        of requests: one concatenation per S/X/T column and one
        repeat-by-sizes for both rate/vol columns.  Fewer requests are
        five slice writes each, which cost less than those calls' fixed
        overhead.  A total past the width raises before anything is
        written."""
        sizes = [req.n for req in requests]
        ends = list(accumulate(sizes))
        total = ends[-1] if ends else 0
        if total > self.width:
            raise GatewayError(
                f"packed {total} options into width-{self.width} "
                f"staging; flush split is broken")
        S, X, T, rate, vol = self._columns
        starts = [0, *ends[:-1]]
        if len(sizes) < PACK_LOOP_BELOW:
            # Break-even: in-process A/B of the two branches, 8-64
            # options a request, median of 41 interleaved rounds of 200
            # packs (2-vCPU Xeon), loop against batch calls, µs: 1 req
            # 5.4/11.5, 2 7.7/12.6, 4 7.8/9.4, 5 9.1/10.0, 6 11.0/11.0,
            # 7 12.2/11.7, 8 14.3/12.8, 12 19.9/15.6.
            for req, a, b in zip(requests, starts, ends):
                S[a:b] = req.S
                X[a:b] = req.X
                T[a:b] = req.T
                rate[a:b] = req.rate
                vol[a:b] = req.vol
        elif total:
            np.concatenate([req.S for req in requests], out=S[:total])
            np.concatenate([req.X for req in requests], out=X[:total])
            np.concatenate([req.T for req in requests], out=T[:total])
            # Every rate, then every vol: one repeat fills both columns.
            params = np.array([req.rate for req in requests]
                              + [req.vol for req in requests])
            cols = params.repeat(sizes + sizes)
            rate[:total] = cols[:total]
            vol[:total] = cols[total:]
        self.packs += 1
        self.total = total
        return list(zip(starts, ends))

    def scatter(self, value, offsets) -> list:
        """Slice the fused batch's result back per request.

        One bulk copy moves the *used* columns of every output out of
        the plan's arena (whose buffers the next flush overwrites) into
        one batch-owned block; each request's result then reads
        zero-copy ``(k, m)`` views of that block.  Views keep the block
        alive, so results stay valid however long callers hold them.
        The work is per batch: a request costs one small object.
        """
        outputs = self.adapter.outputs
        slab = as_result_slab(value, outputs)
        if slab.outputs != outputs:
            raise GatewayError(
                f"tier returned outputs {slab.outputs}, declared "
                f"{outputs}")
        width = self.width
        rows = []
        for name in outputs:
            m = slab[name].shape[0]
            if m % width:
                raise GatewayError(
                    f"output {name!r} length {m} is not a multiple of "
                    f"staging width {width}")
            rows.append(m // width)
        total = offsets[-1][1] if offsets else 0
        # Every output, in declared order, as rows of one stacked
        # vector (a tier's backing, or the bare array a one-output tier
        # returns): a single copy takes the used columns of all of them.
        stacked = value if isinstance(value, np.ndarray) \
            else slab.stacked()
        block = stacked.reshape(-1, width)[:, :total].copy()
        sources = {}
        row = 0
        for name, k in zip(outputs, rows):
            sources[name] = block[row:row + k] if k > 1 else block[row]
            row += k
        return GatewayResult._segments(sources, offsets, total)

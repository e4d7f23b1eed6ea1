"""Hot-path allocation audit via tracemalloc's numpy domain.

NumPy registers every array-data allocation with tracemalloc under its
own domain (``np.lib.tracemalloc_domain``), separate from ordinary
Python object allocations.  That gives the plan layer a *measurable*
definition of its zero-allocation contract, checked two ways:

* **held arrays** — a snapshot diff filtered to the numpy domain lists
  every array buffer allocated during the run that is still alive at
  the end.  A warm ``plan.run()`` must show none: its result and all
  scratch live in the :class:`~.arena.WorkspaceArena`.
* **transient arrays** — a temporary allocated and freed inside the run
  (a missing ``out=``) escapes the snapshot diff, so the audit also
  tracks the tracemalloc *peak*: the high-water mark above the baseline
  bounds every transient, numpy or otherwise.  Python-object noise
  (frames, futures, per-slab task tuples) keeps the peak above zero
  even for a perfectly planned run, and any ufunc over broadcast or
  strided operands cycles numpy's fixed internal nditer working buffer
  (``np.getbufsize()`` elements, ~64 KiB of float64) — a bounded,
  workload-size-independent constant, not a per-call data allocation.
  Callers therefore compare the peak against a noise budget a little
  above that constant and far below their smallest real array
  (:data:`PEAK_NOISE_BUDGET`).

Process-backend workers allocate in their own address spaces, which the
parent's tracemalloc cannot see; audits are therefore meaningful on the
``serial`` and ``thread`` backends, where the whole hot path runs in
the traced process.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass

import numpy as np

#: Transient-peak noise budget for a warm run (bytes): a little above
#: numpy's fixed ~64 KiB nditer working buffer (one per operand of a
#: casting ufunc over strided views, so up to three coexist), far below
#: any real per-call workload array.
PEAK_NOISE_BUDGET = 256 * 1024


@dataclass(frozen=True)
class AllocationAudit:
    """Result of auditing one call.

    Attributes
    ----------
    numpy_blocks / numpy_bytes:
        Array-data blocks (and their bytes) allocated during the call
        and still held afterwards — the snapshot diff in numpy's
        tracemalloc domain.  Zero for a warm planned run.
    peak_bytes:
        Tracemalloc peak over the call, above the pre-call baseline —
        bounds transient allocations in *all* domains, so it includes
        unavoidable Python-object churn.
    """

    numpy_blocks: int
    numpy_bytes: int
    peak_bytes: int

    @property
    def clean(self) -> bool:
        """No held array allocations at all."""
        return self.numpy_blocks == 0


def _numpy_domain_filter() -> tracemalloc.DomainFilter:
    return tracemalloc.DomainFilter(inclusive=True,
                                    domain=np.lib.tracemalloc_domain)


def audit_allocations(fn, warmup: int = 1) -> AllocationAudit:
    """Audit one call of ``fn()`` after ``warmup`` untimed warm calls.

    The warm calls let lazy one-time costs — arena compile, pool start,
    numpy's internal caches — settle before the audited call, mirroring
    how :func:`~repro.bench.harness.time_run` warms its timings.
    Tracing is started fresh and stopped inside the audit, so nesting
    audits is not supported (tracemalloc is process-global).
    """
    for _ in range(warmup):
        fn()
    already = tracemalloc.is_tracing()
    if not already:
        tracemalloc.start(1)
    try:
        before = tracemalloc.take_snapshot()
        # Peak window opens after the snapshot: the snapshot's own
        # bookkeeping allocations must not count against the call.
        tracemalloc.reset_peak()
        base_current, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
        after = tracemalloc.take_snapshot()
    finally:
        if not already:
            tracemalloc.stop()
    del result
    flt = [_numpy_domain_filter()]
    diff = after.filter_traces(flt).compare_to(before.filter_traces(flt),
                                               "traceback")
    blocks = sum(d.count_diff for d in diff if d.count_diff > 0)
    nbytes = sum(d.size_diff for d in diff if d.size_diff > 0)
    return AllocationAudit(
        numpy_blocks=blocks,
        numpy_bytes=nbytes,
        peak_bytes=max(0, peak - base_current),
    )

"""Shared measurement summarization for the bench suite.

Every bench in this package reduces raw wall-clock samples the same few
ways — nearest-rank percentiles for latency distributions, best/median/
spread for repeated timings, min-of-rounds inner loops for sub-µs probes,
and integer histograms for discrete distributions (batch sizes, worker
counts).  Before this module each bench carried its own copy; now
the scaling probes, the harness ``time_run``, the serving loadtest and
the gateway's own stats all reduce through one audited implementation.

All helpers are pure functions over plain Python floats/ints so they
stay trivially picklable and allocation-free in the numpy domain (the
R001 lint treats bench modules as cold code).  :func:`percentile` and
:func:`latency_summary` live in :mod:`repro.serve.stats`, so the
gateway's own stats never import this package; they are re-exported
here.
"""

from __future__ import annotations

import time

from ..errors import ExperimentError
from ..serve.stats import latency_summary, percentile  # noqa: F401


def sorted_latencies(fn, samples: int, warmup: int = 2) -> list:
    """``samples`` wall-clock timings of ``fn()``, ascending.

    ``warmup`` untimed calls run first so one-off costs (allocator
    growth, pool spin-up, plan compilation) land in no reported figure.
    """
    if samples < 1:
        raise ExperimentError("samples must be >= 1")
    if warmup < 0:
        raise ExperimentError("warmup must be >= 0")
    for _ in range(warmup):
        fn()
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    out.sort()
    return out


def summarize_times(times) -> tuple:
    """``(best, median, spread)`` of raw repeated timings.

    Best-of is the paper's reporting convention; median and spread
    (max − min) record run stability alongside.  ``times`` need not be
    sorted; it is not mutated.
    """
    s = sorted(times)
    if not s:
        return 0.0, 0.0, 0.0
    mid = len(s) // 2
    median = s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])
    return s[0], median, s[-1] - s[0]


def best_inner_us(call, inner: int, repeats: int,
                  warmup: int = 1) -> float:
    """Min-of-rounds per-call cost of ``call``, in µs.

    Times ``inner`` back-to-back calls per round and keeps the fastest
    round — the noise-robust estimator the dispatch-overhead probes use
    on busy hosts, where a single pooled round trip can jitter by
    hundreds of µs.
    """
    if inner < 1 or repeats < 1:
        raise ExperimentError("inner and repeats must be >= 1")
    for _ in range(warmup):
        call()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            call()
        best = min(best, time.perf_counter() - t0)
    return best / inner * 1e6


def int_histogram(values) -> dict:
    """Ascending ``{str(value): count}`` histogram of discrete samples
    (batch sizes, slab counts) — string keys so the dict round-trips
    through JSON unchanged."""
    counts: dict = {}
    for v in values:
        counts[int(v)] = counts.get(int(v), 0) + 1
    return {str(k): counts[k] for k in sorted(counts)}

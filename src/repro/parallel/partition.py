"""Domain decomposition helpers.

The paper parallelises every kernel the same way: OpenMP over the
embarrassingly-parallel outer dimension (options or paths). These
helpers split an index range into cache-sized, worker-aware slabs and
build the worker-count ladder of the scaling curves, and round a
live length (the prefix of a compiled dispatch a run prices) up to one
of a fixed set of steps.
"""

from __future__ import annotations

import numbers

from ..errors import ConfigurationError

#: A live length rounds up to the end of one of this many equal steps
#: of the dispatch width (:func:`live_end`), so a prefix dispatch has a
#: fixed set of cuts, all built on its first prefix run and none after.
LIVE_STEPS = 16


def slab_ranges(n: int, slab_elems: int, n_workers: int = 1):
    """Cache-sized contiguous slabs, worker-aware.

    Starts from ``slab_elems`` (the largest slab whose working set fits
    the cache budget) and shrinks it just enough that every worker gets
    at least one slab when there is enough work to go around — otherwise
    a small range would run on one worker even with a full pool idle.
    The result depends only on ``(n, slab_elems, n_workers)``, never on
    the execution backend, so a serial and a threaded run see the same
    slabs (and per-slab RNG streams line up draw for draw).
    """
    if n < 0:
        raise ConfigurationError("n must be non-negative")
    if slab_elems < 1:
        raise ConfigurationError("slab_elems must be >= 1")
    if n_workers < 1:
        raise ConfigurationError("n_workers must be >= 1")
    if n == 0:
        return []
    per_worker = max(1, n // n_workers)      # floor: slabs >= workers
    slab = max(1, min(slab_elems, per_worker))
    return [(a, min(a + slab, n)) for a in range(0, n, slab)]


def doubling_counts(limit: int):
    """Worker-count ladder ``1, 2, 4, …`` up to and including ``limit``
    — the x-axis of the paper's Fig. 6/8 scaling curves.  ``limit`` is
    always the last entry (so an off-power core count like 6 or 12
    still gets measured at full width)."""
    if limit < 1:
        raise ConfigurationError("limit must be >= 1")
    counts = []
    c = 1
    while c < limit:
        counts.append(c)
        c *= 2
    counts.append(limit)
    return counts


def live_length(n, width: int) -> int:
    """``n`` checked as the live length of a width-``width`` dispatch:
    an integer in ``[1, width]``, else :class:`ConfigurationError`."""
    if type(n) is not int and (isinstance(n, bool)
                               or not isinstance(n, numbers.Integral)):
        raise ConfigurationError(
            f"live length must be an integer, got {n!r}")
    if not 0 < n <= width:
        raise ConfigurationError(
            f"live length {n} outside [1, {width}]")
    return int(n)


def live_grain(width: int) -> int:
    """Items per live-length step of a width-``width`` dispatch."""
    return -(-width // LIVE_STEPS)


def live_end(n: int, width: int) -> int:
    """Where an in-caller run with live length ``n`` stops: ``n``
    rounded up to the end of its step (at most ``width``)."""
    return min(width, -(-n // live_grain(width)) * live_grain(width))

"""LRU plan cache keyed by workload shape.

A serving process prices the same *shapes* over and over — same batch
width, same step count, different numbers.  Compiling a plan costs the
very setup the steady state must not pay (arena allocation, write-plan
validation, RNG jump-ahead), so the cache keeps the most recent plans
alive and hands them back whenever the ``(kernel, tier, backend,
workload shape, pool geometry)`` tuple repeats.  A shape change — a new
batch width, a different worker count — misses and compiles a fresh
plan; least-recently-used plans are evicted once ``maxsize`` distinct
shapes are live, so long-running servers do not pin unbounded arena
memory.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import ConfigurationError


def shape_key(payload) -> tuple:
    """A hashable shape signature of one registry payload.

    Recursively reduces the payload to the *shapes* of its leaves —
    array dims and dtypes, sequence lengths, scalar types — never their
    values, so two same-shape workloads with different numbers share a
    plan.  Objects exposing ``shape``/``dtype`` (arrays), ``n_points``
    (bridge schedules) and plain scalars all reduce deterministically.
    """
    if payload is None or isinstance(payload, (bool, str)):
        return (type(payload).__name__, payload)
    if isinstance(payload, (int, float)):
        # Scalar *parameters* shape the plan (step counts, path counts).
        return (type(payload).__name__, payload)
    if hasattr(payload, "shape") and hasattr(payload, "dtype"):
        return ("ndarray", tuple(payload.shape), str(payload.dtype))
    if isinstance(payload, dict):
        return ("dict",) + tuple(
            (k, shape_key(v)) for k, v in sorted(payload.items()))
    if isinstance(payload, (list, tuple)):
        return ("seq", len(payload),
                shape_key(payload[0]) if payload else None)
    if hasattr(payload, "n_points"):            # BridgeSchedule and kin
        return (type(payload).__name__, int(payload.n_points))
    if hasattr(payload, "batch"):               # OptionBatch
        # Float rate/vol are *plan parameters*: planners bake them into
        # dispatch consts and ExecutionPlan refuses to rebind across a
        # change, so their values key distinct plans.  Per-option
        # columns are streamed like S/X/T and key by form alone.
        if payload.per_option:
            return (type(payload).__name__, len(payload), payload.layout,
                    "per_option")
        return (type(payload).__name__, len(payload), payload.layout,
                payload.rate, payload.vol)
    return (type(payload).__name__,)


class PlanCache:
    """LRU cache of compiled :class:`~.plan.ExecutionPlan` objects."""

    def __init__(self, maxsize: int = 8):
        if maxsize < 1:
            raise ConfigurationError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._plans: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key) -> bool:
        return key in self._plans

    def get(self, key):
        """The cached plan for ``key``, bumped most-recently-used, or
        ``None`` (a miss)."""
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
            return None
        self._plans.move_to_end(key)
        self.hits += 1
        return plan

    def put(self, key, plan) -> None:
        displaced = self._plans.get(key)
        if displaced is not None and displaced is not plan:
            # Overwriting a live entry must retire it — the old plan's
            # daemon pins and arena segments leak otherwise.
            displaced.close()
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.maxsize:
            _, evicted = self._plans.popitem(last=False)
            self.evictions += 1
            if evicted is not plan:
                evicted.close()

    def setdefault(self, key, plan):
        """Cache ``plan`` under ``key`` unless one is already live; the
        incumbent wins and the loser is closed.  This is the primitive
        for concurrent compilers (gateway dispatch vs. eviction): two
        contexts racing the same shape must not leak the runner-up's
        pins."""
        have = self._plans.get(key)
        if have is not None:
            self._plans.move_to_end(key)
            self.hits += 1
            if have is not plan:
                plan.close()
            return have
        self.put(key, plan)
        return plan

    def pop(self, key) -> bool:
        """Drop (and close) the plan cached under ``key``; ``True`` if
        one was live.  The gateway uses this when it retires a staging
        shape so the plan's daemon pins release with it."""
        plan = self._plans.pop(key, None)
        if plan is None:
            return False
        plan.close()
        return True

    def get_or_compile(self, key, compile_fn):
        """Cached plan for ``key``, compiling (and caching) on a miss."""
        plan = self.get(key)
        if plan is None:
            plan = compile_fn()
            self.put(key, plan)
        return plan

    def clear(self) -> None:
        """Drop (and close) every cached plan."""
        while self._plans:
            _, plan = self._plans.popitem(last=False)
            plan.close()

    @property
    def stats(self) -> dict:
        return {"size": len(self._plans), "maxsize": self.maxsize,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


#: Process-wide cache the CLI/harness and the examples share, so any
#: repeated same-shape pricing in one process hits warm plans.
_DEFAULT: PlanCache | None = None


def default_cache() -> PlanCache:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PlanCache()
    return _DEFAULT

"""ExecutionPlan: one compiled ``(kernel, tier, workload, backend)``.

:func:`compile_plan` does everything expensive exactly once — builds or
binds the payload, sizes the slab partition, validates the write plan,
reserves every buffer in a :class:`~.arena.WorkspaceArena`, pre-seeds
per-slab RNG stream states — and returns an :class:`ExecutionPlan`
whose :meth:`~ExecutionPlan.run` replays the hot path with zero array
allocations.  This is the reproduction's analogue of the paper's
setup-amortized tiers: Listing 3 configures its register tiling before
the loop, Sec. IV-D3 seeds its interleaved streams once per run, and
the loop body then only streams data through pre-built state.

A tier opts in by registering a *planner* alongside its impl
(:func:`repro.registry.register_impl` ``planner=``).  The planner
receives ``(payload, executor, arena)`` and returns a zero-argument
``runner`` that prices the bound payload into arena-owned buffers,
reading the payload's arrays on every run (new numbers are copied into
them in place — no planner keeps a derived copy to refresh).  A slab
tier has no second body: its registered ``fn`` is the one-shot of its
planner (:func:`one_shot`: compile, run once, retire).  Serial ladder
tiers without a planner still compile — the plan wraps their ``fn``
and reports ``planned=False`` — so every registered impl has a uniform
``plan()`` path.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from .. import registry
from ..config import SMALL_SIZES
from ..errors import ConfigurationError
from .arena import WorkspaceArena
from .cache import default_cache, shape_key


def _rebind_into(bound, new, path: str = "payload") -> None:
    """Copy ``new``'s array contents into the plan-bound ``bound``.

    Arrays are the *streamed* part of a payload: same shape and dtype,
    new numbers, copied in place.  Everything else — scalars, option
    lists, schedules — is *compiled into* the plan (leaf counts, grid
    spacings, RNG jumps all derive from it), so a differing value is a
    shape change in disguise and raises: compile a fresh plan (the
    :class:`~.cache.PlanCache` key catches this automatically).  An
    :class:`~repro.pricing.options.OptionBatch` streams S/X/T and, when
    it carries them per option, its rate/vol columns; a shared float
    rate/vol is a plan constant like any other scalar.
    """
    if new is bound:
        return              # the plan's own payload: nothing to copy
    if isinstance(bound, np.ndarray):
        arr = np.asarray(new)
        if arr.shape != bound.shape or arr.dtype != bound.dtype:
            raise ConfigurationError(
                f"{path}: expected array {bound.shape}/{bound.dtype}, "
                f"got {arr.shape}/{arr.dtype}; compile a new plan")
        np.copyto(bound, arr)
        return
    if isinstance(bound, dict):
        if not isinstance(new, dict) or set(new) != set(bound):
            raise ConfigurationError(
                f"{path}: payload keys changed; compile a new plan")
        for k in bound:
            _rebind_into(bound[k], new[k], f"{path}[{k!r}]")
        return
    if isinstance(bound, (list, tuple)):
        if len(new) != len(bound):
            raise ConfigurationError(
                f"{path}: length changed {len(bound)} -> {len(new)}; "
                f"compile a new plan")
        for i, (b, v) in enumerate(zip(bound, new)):
            _rebind_into(b, v, f"{path}[{i}]")
        return
    if hasattr(bound, "batch") and hasattr(bound, "n"):   # OptionBatch
        if new.n != bound.n or new.per_option != bound.per_option:
            raise ConfigurationError(
                f"{path}: batch width and rate/vol form are compiled "
                f"into the plan; compile a new plan")
        if bound.per_option:
            # Columns are streamed next to S/X/T.
            np.copyto(bound.rate, new.rate)
            np.copyto(bound.vol, new.vol)
        elif new.rate != bound.rate or new.vol != bound.vol:
            raise ConfigurationError(
                f"{path}: a shared rate/vol is compiled into the plan; "
                f"compile a new plan")
        for name in ("S", "X", "T"):
            np.copyto(bound.batch.get(name), new.batch.get(name))
        return
    # Plan-shaping constant: scalars, Option contracts, schedules.
    if not _values_equal(bound, new):
        raise ConfigurationError(
            f"{path}: value of type {type(new).__name__} differs from "
            f"the compiled one; it is baked into the plan — compile a "
            f"new one")


def _values_equal(a, b) -> bool:
    """Structural value equality for plan-shaping constants, tolerant
    of array-bearing objects (schedules, option dataclasses) where
    plain ``==`` is ambiguous or raises."""
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and a.dtype == b.dtype
                and bool(np.array_equal(a, b)))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(_values_equal(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and set(a) == set(b)
                and all(_values_equal(a[k], b[k]) for k in a))
    if dataclasses.is_dataclass(a) and type(a) is type(b):
        return all(_values_equal(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    try:
        return bool(a == b)
    except Exception:
        return False


class ExecutionPlan:
    """A compiled kernel tier: frozen arena, frozen dispatch, warm RNG.

    Not constructed directly — use :func:`compile_plan`.  The plan owns
    its :class:`~.arena.WorkspaceArena` and (when it created one) its
    :class:`~repro.parallel.slab.SlabExecutor`; :meth:`close` releases
    the pool.  ``run()`` returns an **arena-owned** result view, valid
    until the next ``run()`` — pass ``out=`` or copy to keep it.
    """

    def __init__(self, *, impl, payload, arena: WorkspaceArena,
                 executor, runner, planned: bool,
                 owns_executor: bool, key: tuple):
        self.impl = impl
        self.payload = payload
        self.arena = arena
        self.executor = executor
        self.planned = planned
        self.key = key
        self._runner = runner
        self._owns_executor = owns_executor
        self.calls = 0

    # -- identity ------------------------------------------------------
    @property
    def kernel(self) -> str:
        return self.impl.kernel

    @property
    def tier(self) -> str:
        return self.impl.tier

    @property
    def backend(self) -> str:
        return self.impl.backend

    @property
    def label(self) -> str:
        return self.impl.label

    # -- hot path ------------------------------------------------------
    def run(self, payload=None, out: np.ndarray | None = None):
        """Execute the compiled tier.

        ``payload``, when given, must match the compiled shape; its
        array contents are copied into the plan's bound buffers (new
        numbers, same plan).  ``out``, when given, receives a copy of
        the result; otherwise the arena-owned result view is returned
        directly (valid until the next ``run``).
        """
        if payload is not None:
            _rebind_into(self.payload, payload)
        result = self._runner()
        self.calls += 1
        if out is not None:
            np.copyto(out, result)
            return out
        return result

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        # Retire the compiled dispatches this plan's arena adopted even
        # when the executor is shared (cache eviction must unpin a
        # daemon plan and release its segments, not wait for executor
        # close).
        self.arena.close()
        if self._owns_executor and self.executor is not None:
            self.executor.close()

    def __enter__(self) -> "ExecutionPlan":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def describe(self) -> str:
        head = (f"ExecutionPlan {self.label} — "
                f"{'planned' if self.planned else 'cold-wrapped'}, "
                f"{self.calls} calls")
        return "\n".join([head, self.arena.describe()])


def compile_plan(kernel: str, tier: str, payload=None, *,
                 backend: str = "serial", n_workers: int | None = None,
                 slab_bytes: int | None = None, executor=None,
                 sizes=None, seed: int = 2012) -> ExecutionPlan:
    """Compile ``(kernel, tier, payload, backend)`` into a warm plan.

    ``payload`` defaults to the kernel's registered workload built from
    ``sizes`` (default :data:`~repro.config.SMALL_SIZES`) and ``seed``.
    ``executor``, when given, is shared (the caller keeps ownership);
    otherwise the plan creates and owns one for ``backend``.
    """
    impl = registry.impl(kernel, tier, backend)
    spec = registry.workload(kernel)
    if payload is None:
        payload = spec.build(sizes if sizes is not None else SMALL_SIZES,
                             seed=seed)
    owns = executor is None
    if owns:
        from ..parallel.slab import SlabExecutor
        executor = SlabExecutor(backend, n_workers=n_workers,
                                slab_bytes=slab_bytes)
    elif executor.backend != backend:
        raise ConfigurationError(
            f"executor backend {executor.backend!r} does not match "
            f"requested backend {backend!r}")
    arena = WorkspaceArena(tag=impl.label)
    runner = impl.plan(payload, executor, arena)
    planned = runner is not None
    if not planned:
        # No planner registered (serial ladder tiers): the plan still
        # exists (uniform plan() path) but each run calls fn, flagged
        # for benches.
        def runner(_impl=impl, _p=payload, _ex=executor):
            return np.asarray(_impl.fn(_p, _ex))
    arena.freeze()
    key = plan_key(kernel, tier, backend, executor.n_workers, payload)
    return ExecutionPlan(impl=impl, payload=payload, arena=arena,
                         executor=executor, runner=runner,
                         planned=planned, owns_executor=owns, key=key)


def one_shot(compile_fn, *args, executor=None, **kwargs):
    """Compile, run once, retire — what a slab tier's plain function
    (``price_parallel``, ``greeks_tiled_parallel``, …) is.

    ``compile_fn(*args, executor, arena, **kwargs)`` is the tier's
    ``compile_*`` function, the one place its dispatch is declared.  It
    compiles against a fresh private arena on ``executor`` (default:
    the process-wide threaded one), the runner is called once, and the
    dispatches the compile created are retired whether or not the run
    raised — nothing stays staged or pinned.  The result lives in the
    arena's buffers, plain arrays that stay valid after the arena is
    dropped.
    """
    if executor is None:
        from ..parallel.slab import default_executor
        executor = default_executor()
    arena = WorkspaceArena(tag="one-shot")
    try:
        return compile_fn(*args, executor, arena, **kwargs)()
    finally:
        arena.close()


def plan_key(kernel: str, tier: str, backend: str, n_workers: int,
             payload) -> tuple:
    """The cache key: identity + pool geometry + workload *shape*."""
    return (kernel, tier, backend, int(n_workers), shape_key(payload))


def cached_plan(kernel: str, tier: str, payload, *,
                backend: str = "serial", n_workers: int | None = None,
                executor=None, cache=None) -> ExecutionPlan:
    """A warm plan from the cache, compiling on the first same-shape
    call — the serving entry point.

    The key hashes the payload's *shape*, so repeated pricing of
    same-width batches hits the same plan; ``run(payload)`` rebinds the
    new numbers into the compiled buffers.
    """
    cache = cache if cache is not None else default_cache()
    workers = n_workers
    if workers is None:
        workers = executor.n_workers if executor is not None \
            else (os.cpu_count() or 1)
    key = plan_key(kernel, tier, backend, workers, payload)
    plan = cache.get(key)
    if plan is None:
        plan = compile_plan(kernel, tier, payload, backend=backend,
                            n_workers=n_workers, executor=executor)
        cache.put(key, plan)
        return plan
    if payload is not None:
        # Rebind the caller's numbers into the cached plan's buffers.
        _rebind_into(plan.payload, payload)
    return plan

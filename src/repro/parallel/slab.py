"""Zero-copy slab-parallel execution engine.

The functional realisation of the paper's threading layer: instead of
dispatching per-item Python calls, a :class:`SlabExecutor` partitions
a NumPy workload into contiguous **slabs** — zero-copy array views sized so each slab's working set fits
the last-level cache (Sec. IV's "chunk the problem to the LLC" rule,
the same sizing :func:`repro.kernels.brownian.default_block_paths`
applies to bridges) — and dispatches whole slabs to a **persistent**
worker pool.

Four backends share one slab plan, and one dispatch body: every
dispatch is *compiled* (:meth:`SlabExecutor.compile_shm` — plan,
validate, build per-slab views, stage, pin) into a
:class:`CompiledDispatch` and then *run*; a one-shot
(:meth:`SlabExecutor.map_shm`) is compile, run once, retire.

* ``serial`` — in-caller execution, the timing baseline.
* ``thread`` — a reusable :class:`ThreadPoolExecutor`.  NumPy ufuncs
  release the GIL for the duration of the array operation, so threads
  genuinely overlap on multi-core hosts, and workers receive views into
  the caller's arrays: no pickling, no copying in, no reassembly.
* ``process`` — a reusable :class:`ProcessPoolExecutor` over
  :mod:`multiprocessing.shared_memory` segments (:mod:`.shm`).  The
  hot Python portions of a slab kernel — loop control, small-slab
  dispatch, generator state — hold the GIL, so thread scaling tops out
  well below the core count; worker processes sidestep the GIL
  entirely.  A plan's arrays live in shared segments from compile time
  and workers slice them in place; only caller-owned arrays are staged
  (copied in before a run, written ones copied back after it).
  Per-slab task messages never carry array data.
* ``daemon`` — the standing-worker refinement of ``process``
  (:mod:`.daemon`): the executor forks its own worker fleet once and
  stops it on close, each compiled dispatch is pinned once (the only
  pickling, at compile time), and every run moves only fixed-size slab
  descriptors through shared-memory rings
  (:mod:`.ring`) — zero pickling and zero executor-queue hops per run,
  which is what keeps dispatch overhead flat as worker counts grow.

Determinism contract
--------------------
The slab plan is a pure function of ``(n, slab_bytes, bytes_per_item,
n_workers)`` — never of the backend — and random streams are assigned
**per slab** (not per worker), the deterministic refinement of the
paper's per-thread interleaved RNG (Sec. IV-D3).  Serial, threaded and
process-pool runs therefore consume identical draws on identical slabs
and produce bit-identical prices for a fixed seed, which the test
suite asserts kernel by kernel and the measured benches assert digest
by digest.
"""

from __future__ import annotations

import bisect
import itertools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

from ..errors import ConfigurationError
from .partition import live_grain, live_length, slab_ranges
from .safety import freeze_write_plan
from .shm import ShmArena, run_slab_task

#: Execution backends: in-caller, GIL-releasing thread pool,
#: shared-memory process pool, or the standing worker daemon with
#: ring-buffer dispatch.  :data:`repro.registry.BACKENDS` mirrors this
#: tuple for implementation registration.
BACKENDS = ("serial", "thread", "process", "daemon")

#: Backends whose workers live in another address space: arrays travel
#: through shared-memory segments and slab bodies must be picklable.
OUT_OF_PROCESS_BACKENDS = ("process", "daemon")

#: Fallback LLC size when sysfs is unreadable — matches the generic
#: 8 MiB L3 that :func:`repro.arch.host.calibrate_host` assumes.
DEFAULT_LLC_BYTES = 8 * 1024 * 1024

#: Measured pool-crossover threshold (bytes of total working set) on
#: the bench host: below this, pool submission overhead exceeds the
#: parallel win and dispatch runs in-caller over the same slab plan.
#: Measured by :func:`repro.bench.harness.measure_pool_crossover`
#: (``python -m repro scaling --crossover``, recorded under
#: ``"crossover"`` in ``BENCH_scaling.json``): pooled
#: thread dispatch costs a fixed ~25–40 µs per submission round, and
#: every measured kernel configuration with a working set under 2 MiB
#: ran *slower* pooled than inline (Black-Scholes at 1.25 MiB: 1.15x,
#: brownian at 0.6 MiB: 1.4x, binomial at 32 options / ~0.8 MiB: the
#: 0.95x that motivated the fallback), while at and above 2 MiB pooled
#: was within noise of inline (rng at 2 MiB: 1.004x, binomial at
#: 3.2 MiB: 1.003x).  :func:`default_executor` carries it; an explicit
#: executor gets whatever its caller passes.
MEASURED_CROSSOVER_BYTES = 1 << 21

#: Sequence for per-compiled-dispatch shared-memory role prefixes, so
#: two compiled dispatches never share each other's segments.
#: ``next()`` on a count is atomic, so concurrent one-shots from several
#: threads still draw distinct prefixes.
_COMPILE_SEQ = itertools.count(1)


def host_llc_bytes(default: int = DEFAULT_LLC_BYTES) -> int:
    """Last-level-cache size of *this* host, from sysfs.

    Scans ``/sys/devices/system/cpu/cpu0/cache`` for the largest
    reported level; returns ``default`` when the hierarchy is not
    exposed (non-Linux, containers with masked sysfs).
    """
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = 0
    try:
        for entry in os.listdir(base):
            if not entry.startswith("index"):
                continue
            try:
                with open(os.path.join(base, entry, "size")) as fh:
                    text = fh.read().strip()
            except OSError:
                continue
            scale = 1
            if text.endswith(("K", "k")):
                scale, text = 1024, text[:-1]
            elif text.endswith(("M", "m")):
                scale, text = 1024 * 1024, text[:-1]
            if text.isdigit():
                best = max(best, int(text) * scale)
    except OSError:
        return default
    return best or default


def _default_mp_context() -> str:
    """``fork`` where available (instant worker start, inherited
    imports), else ``spawn``."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() \
        else "spawn"


class SlabExecutor:
    """Persistent-pool slab dispatcher for NumPy kernels.

    Parameters
    ----------
    backend:
        ``serial`` (in-caller execution, the timing baseline),
        ``thread`` (reusable :class:`ThreadPoolExecutor`; ufuncs release
        the GIL so slabs overlap on real cores), ``process``
        (reusable :class:`ProcessPoolExecutor`; slabs are mapped out of
        shared-memory segments, so GIL-bound kernel portions scale too)
        or ``daemon`` (a worker fleet this executor forks and owns,
        fed slab descriptors through shared-memory rings — the process
        backend minus its per-call pickling and queue hops; see
        :mod:`.daemon`).
    n_workers:
        Pool width; defaults to the host CPU count.
    slab_bytes:
        Working-set budget per slab.  Defaults to half the
        sysfs-detected host LLC, so a slab's inputs, outputs and
        scratch stay cache-resident while the next slab streams in.
    mp_context:
        Start method for the process backend (``fork``/``spawn``/
        ``forkserver``); default picks ``fork`` where the platform
        offers it.  Ignored by the other backends.
    min_parallel_bytes:
        Crossover threshold for the small-problem regression: a
        dispatch whose total working set (``n * bytes_per_item``) falls
        below it runs in-caller over the *same* slab plan instead of
        paying pool submission overhead — results are bit-identical,
        only the transport changes.  Fixed at construction; it is the
        only inline-vs-pool input.  Default ``0`` keeps the fallback
        off (explicit executors always exercise their pool, which the
        pool-persistence tests rely on; the benches' and the gateway's
        executors keep it too).  :func:`default_executor` and perfbench's
        ``batch_wide`` pass the measured
        :data:`MEASURED_CROSSOVER_BYTES`.

    The pool (or daemon fleet) is created lazily on the first pooled
    dispatch and **reused across calls** until :meth:`close` (or
    context-manager exit) — no per-call pool churn.  Shared segments
    and daemon pins belong to a :class:`CompiledDispatch` and live
    exactly as long as it does.
    """

    def __init__(self, backend: str = "thread", n_workers: int | None = None,
                 slab_bytes: int | None = None,
                 mp_context: str | None = None,
                 min_parallel_bytes: int = 0):
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; want one of {BACKENDS}"
            )
        if n_workers is not None and n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        if slab_bytes is not None and slab_bytes < 1:
            raise ConfigurationError("slab_bytes must be >= 1")
        if min_parallel_bytes < 0:
            raise ConfigurationError("min_parallel_bytes must be >= 0")
        self.backend = backend
        self.n_workers = n_workers or os.cpu_count() or 1
        if slab_bytes is None:
            slab_bytes = max(1, host_llc_bytes() // 2)
        self.slab_bytes = slab_bytes
        self.mp_context = mp_context or _default_mp_context()
        self.min_parallel_bytes = min_parallel_bytes
        self._pool = None          # ThreadPoolExecutor | ProcessPoolExecutor
        self._arena = None         # ShmArena (process/daemon backends)
        self._daemon = None        # SlabDaemon (daemon backend)
        self._live_dispatches = []  # CompiledDispatch registry (close)
        self._closed = False

    @property
    def out_of_process(self) -> bool:
        """True when workers live in another address space (process or
        daemon backend): slab bodies must be picklable and arrays reach
        workers through shared-memory segments, never as views of the
        caller's buffers."""
        return self.backend in OUT_OF_PROCESS_BACKENDS

    # -- lifecycle -----------------------------------------------------
    def _get_pool(self):
        if self._closed:
            raise ConfigurationError("executor is closed")
        if self._pool is None:
            if self.backend == "process":
                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    mp_context=multiprocessing.get_context(self.mp_context),
                )
            else:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.n_workers,
                    thread_name_prefix="repro-slab",
                )
        return self._pool

    def _get_arena(self):
        if self._closed:
            raise ConfigurationError("executor is closed")
        if self._arena is None:
            self._arena = ShmArena()
        return self._arena

    def shm_arena(self):
        """Where a plan compiled on this executor allocates: the
        executor's :class:`~.shm.ShmArena` out of process (so its
        compiled dispatches read and write those buffers in place),
        ``None`` in process."""
        return self._get_arena() if self.out_of_process else None

    def _get_daemon(self):
        """The worker fleet behind the ``daemon`` backend: a
        :class:`~.daemon.SlabDaemon` this executor starts on first use
        and stops on :meth:`close`."""
        if self._closed:
            raise ConfigurationError("executor is closed")
        if self._daemon is None:
            from .daemon import SlabDaemon
            self._daemon = SlabDaemon(self.n_workers, self.mp_context).start()
        return self._daemon

    def close(self) -> None:
        """Shut the pool or daemon fleet down and release any shared
        segments; the executor cannot dispatch afterwards."""
        self._closed = True
        for dispatch in list(self._live_dispatches):
            dispatch.close()
        if self._daemon is not None:
            self._daemon.stop()
            self._daemon = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def __enter__(self) -> "SlabExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        if getattr(self, "_daemon", None) is not None:
            try:
                self._daemon.close()
            except Exception:
                pass
        if getattr(self, "_pool", None) is not None:
            self._pool.shutdown(wait=False)
        if getattr(self, "_arena", None) is not None:
            self._arena.close()

    # -- planning ------------------------------------------------------
    def plan(self, n: int, bytes_per_item: int = 8):
        """The slab partition of ``range(n)``: ``(start, stop)`` pairs.

        ``bytes_per_item`` is the per-item working set (inputs + outputs
        + scratch); the slab length is ``slab_bytes // bytes_per_item``,
        shrunk so every worker gets a slab when ``n`` allows.  Backend-
        independent by construction (see the module determinism note).
        """
        return self._slabs(n, bytes_per_item, self.n_workers)

    def _slabs(self, n: int, bytes_per_item: int, n_workers: int):
        if bytes_per_item < 1:
            raise ConfigurationError("bytes_per_item must be >= 1")
        elems = max(1, self.slab_bytes // bytes_per_item)
        return slab_ranges(n, elems, n_workers)

    def n_slabs(self, n: int, bytes_per_item: int = 8) -> int:
        return len(self.plan(n, bytes_per_item))

    def inline(self, n: int, bytes_per_item: int = 8) -> bool:
        """True when a dispatch of ``n`` items runs in-caller: the
        measured crossover says its working set is too small to earn
        back pool-submission overhead.  Never changes the slab plan or
        the per-slab streams, so results stay bit-identical."""
        return 0 < n * bytes_per_item < self.min_parallel_bytes

    # -- dispatch ------------------------------------------------------
    def map_shm(self, fn, n: int, bytes_per_item: int = 8, *,
                sliced: dict | None = None, shared: dict | None = None,
                writes=(), consts: dict | None = None, per_slab=None,
                outputs: dict | None = None):
        """Structured slab dispatch, one-shot: compile, run once,
        retire.  Returns the per-slab results in slab order (kernels
        that write through views return ``None`` per slab).

        ``fn(arrays, consts, start, stop, slab_index)`` receives a dict
        of NumPy views — ``sliced`` entries cut ``[start:stop]`` along
        axis 0, ``shared`` entries whole — plus the merged constants.
        On the ``serial``/``thread`` backends the views alias the
        caller's arrays directly (zero-copy, results land in place); on
        the out-of-process backends workers slice views of shared
        segments: arrays already in the executor's segments are used in
        place, others are staged in and, when named in ``writes``,
        copied back into the caller's buffers after the last slab
        completes.  Because every backend runs the
        same ``fn`` over the same plan with the same values, results
        are bit-identical across backends.

        The dispatch is a :class:`CompiledDispatch` that lives for this
        call only: nothing stays staged or pinned afterwards, and
        ``per_slab`` constants (stateful stream objects) are built
        fresh every call.  Callers that repeat a same-shape dispatch
        should :meth:`compile_shm` once and ``run()`` many times.

        Parameters
        ----------
        sliced:
            ``{name: ndarray}`` with first-dimension length ``n``;
            workers see the ``[start:stop]`` view.
        shared:
            ``{name: ndarray}`` passed whole to every slab (e.g. a
            common random stream).
        writes:
            Names (from ``sliced``/``shared``) the kernel writes.
            Treated as write-only: their prior contents are not staged
            to workers on the out-of-process backends.  Checked before
            dispatch by :func:`.safety.validate_write_plan`: written
            arrays must be ``sliced`` whenever the plan has more than
            one slab, must not alias each other, and must not double as
            ``consts`` names — violations raise before any slab task
            runs.
        consts:
            Small picklable extras (scalars, schedules, seeds).
        per_slab:
            Optional ``per_slab(start, stop, slab_index) -> dict``
            merged over ``consts`` for that slab — per-slab RNG
            streams, pre-sliced object lists.  Computed in the caller,
            so it is plan-deterministic, never worker-dependent.
        outputs:
            Optional multi-output schema ``{logical_name: (write
            array names, ...)}`` declaring how the ``writes`` arrays
            compose into named results (one logical output may span
            several arrays, e.g. a ``"price"`` backed by call and put
            vectors).  Validated against ``writes`` before dispatch
            (:func:`.safety.validate_outputs_schema`); on the daemon
            backend the schema's output-set id rides every slab
            descriptor so standing workers cross-check the pinned
            plan's contract.

        ``fn`` must be a module-level (picklable) function for the
        out-of-process backends; the other backends accept any
        callable.
        """
        dispatch = self._compile(
            fn, n, bytes_per_item, self.plan(n, bytes_per_item),
            sliced=sliced, shared=shared, writes=writes, consts=consts,
            per_slab=per_slab, outputs=outputs, tag="once")
        try:
            return dispatch.run()
        finally:
            dispatch.close()

    def compile_shm(self, fn, n: int, bytes_per_item: int = 8, *,
                    sliced: dict | None = None, shared: dict | None = None,
                    writes=(), consts: dict | None = None, per_slab=None,
                    outputs: dict | None = None, prefixes: bool = False,
                    tag: str | None = None) -> "CompiledDispatch":
        """Compile one slab dispatch for zero-setup replay.

        Same contract and parameters as :meth:`map_shm` (plus ``tag``,
        a readable prefix for the dispatch's shared-memory roles), but
        everything per-dispatch is paid **once**, here: the slab plan,
        the write-plan validation (:func:`.safety.freeze_write_plan`),
        the per-slab view dicts, the merged ``per_slab`` constants (RNG
        streams, pre-sliced object lists) and — out of process — the
        shared-segment staging and the daemon pin.  The returned
        :class:`CompiledDispatch`'s :meth:`~CompiledDispatch.run`
        replays the dispatch against the *same array objects*, never
        rebound: new numbers are written into them in place
        (``np.copyto``) between runs.  Out of process, an array that
        already lives in one of the executor's segments (every buffer
        a plan compiled, and its payload copy) is read and written
        where it is; any other array is copied into a private segment
        before each run and, if written, back out after it.  The caller
        owns the handle and must :meth:`~CompiledDispatch.close` it
        (plans do so through
        :meth:`repro.plan.WorkspaceArena.adopt`); executor close
        retires whatever is still live.  This is the slab engine's half
        of the plan layer's zero-allocation contract.

        ``prefixes=True`` lets :meth:`~CompiledDispatch.run` take a
        live length.  ``per_slab`` is then called once more for each
        cut ``[a, end)`` of slab ``i``, on the first prefix run, and
        must only carve views of memory it has reserved.
        """
        return self._compile(
            fn, n, bytes_per_item, self.plan(n, bytes_per_item),
            sliced=sliced, shared=shared, writes=writes, consts=consts,
            per_slab=per_slab, outputs=outputs, prefixes=prefixes, tag=tag)

    def compile_lanes(self, fn, n: int, bytes_per_item: int = 8,
                      **dispatch) -> "CompiledDispatch":
        """:meth:`compile_shm` for a body that vectorises *across* its
        slab's items and whose results cannot depend on the partition
        (independent lanes, no per-slab RNG stream): the lattice and
        bridge kernels, where calls per run scale with the number of
        slabs.
        Slabs that run back to back in the caller gain nothing from
        :meth:`plan`'s worker-aware split and pay for it in calls, so
        there only the cache budget splits them; a pooled dispatch
        keeps the worker-aware plan."""
        in_caller = self.backend == "serial" or self.inline(n, bytes_per_item)
        slabs = self._slabs(n, bytes_per_item,
                            1 if in_caller else self.n_workers)
        return self._compile(fn, n, bytes_per_item, slabs, **dispatch)

    def _compile(self, fn, n, bytes_per_item, slabs, *, sliced=None,
                 shared=None, writes=(), consts=None, per_slab=None,
                 outputs=None, prefixes=False, tag=None) -> "CompiledDispatch":
        if self._closed:
            raise ConfigurationError("executor is closed")
        sliced = dict(sliced or {})
        shared = dict(shared or {})
        consts = dict(consts or {})
        for name, arr in sliced.items():
            if arr.shape[0] != n:
                raise ConfigurationError(
                    f"sliced array {name!r} has leading dimension "
                    f"{arr.shape[0]}, expected {n}")
        unknown = [w for w in writes if w not in sliced and w not in shared]
        if unknown:
            raise ConfigurationError(
                f"writes names {unknown} not among the dispatched arrays")
        plan = freeze_write_plan(slabs, n, sliced=sliced, shared=shared,
                                 writes=writes, consts=consts,
                                 outputs=outputs)
        # The caller's tag is a readable prefix; the sequence keeps
        # roles unique so no two compiled dispatches share segments.
        dispatch = CompiledDispatch(
            self, fn, plan, sliced=sliced, shared=shared, writes=writes,
            consts=consts, per_slab=per_slab, prefixes=prefixes,
            inline=self.inline(n, bytes_per_item),
            tag=f"{tag or 'cd'}{next(_COMPILE_SEQ)}")
        # The caller owns the handle and closes it; this registry only
        # lets executor close retire whatever is still live (daemon
        # pins, staged segments) deterministically.
        self._live_dispatches.append(dispatch)
        return dispatch


class CompiledDispatch:
    """One slab dispatch, compiled for replay — the only code that
    slices per-slab views, stages arena roles, submits to a pool or
    pins a daemon plan.

    Built by :meth:`SlabExecutor.compile_shm`/``compile_lanes``; holds
    the frozen :class:`~.safety.WritePlan`, the prebuilt per-slab views
    and merged constants, and (out of process) the worker specs — in
    place for arrays already in the executor's segments, staged with
    parent-side copy-in/copy-back views for the rest — and the daemon
    pin.  :meth:`run` replays the dispatch with no validation and no
    array allocation in the parent; a dispatch over segment-resident
    arrays copies nothing either.  :meth:`close`
    retires it; :meth:`SlabExecutor.map_shm` is exactly
    compile → ``run()`` → ``close()``.
    """

    def __init__(self, executor: SlabExecutor, fn, plan, *, sliced: dict,
                 shared: dict, writes, consts: dict, per_slab,
                 inline: bool, tag: str, prefixes: bool = False):
        self.executor = executor
        self.fn = fn
        self.plan = plan
        self.tag = tag
        slabs = plan.slabs
        self._consts = [
            consts if per_slab is None else {**consts, **per_slab(a, b, i)}
            for i, (a, b) in enumerate(slabs)
        ]
        pooled = len(slabs) > 1 and not inline
        self._pooled_thread = pooled and executor.backend == "thread"
        self._plan_id = None
        self._retired = False
        self._starts = tuple(a for a, _ in slabs)
        self._prefixes = prefixes
        self._specs = None
        self._staged = self._copy_in = self._copy_back = ()
        if not (pooled and executor.out_of_process):
            # In-caller and thread paths call fn on prebuilt views into
            # the caller's arrays — zero-copy, results land in place.
            self._tasks = []
            for i, (a, b) in enumerate(slabs):
                arrays = {k: v[a:b] for k, v in sliced.items()}
                arrays.update(shared)
                self._tasks.append((arrays, self._consts[i], a, b, i))
            # A dispatch never given a live length builds no cuts.
            self._cuts = None
            self._cut_from = (sliced, shared, consts, per_slab)
            return
        # Out-of-process backends: an array already in one of the
        # executor's segments (plan buffers, a plan's payload copy) is
        # referenced where it lives.  Any other array is staged once,
        # into a role unique to this compiled dispatch (a role is sized
        # once, so no other dispatch may stage into it), with a parent
        # view for per-run input refresh or write copy-back.
        arena = executor._get_arena()
        specs, staged, copy_in, copy_back = {}, [], [], []
        try:
            for name, arr in {**sliced, **shared}.items():
                spec = arena.locate(arr)
                if spec is None:
                    role = f"{tag}.{name}"
                    spec = arena.stage(role, arr, copy=False)
                    staged.append(role)
                    if name in writes:
                        copy_back.append((arr, arena.view(spec)))
                    else:
                        copy_in.append((arena.view(spec), arr))
                spec.sliced = name in sliced
                specs[name] = spec
            if executor.backend == "daemon":
                # Pin once — the only pickle this dispatch ever pays;
                # every run() is then pure descriptor traffic.
                self._plan_id = executor._get_daemon().pin(
                    fn, specs, self._consts, slabs,
                    outputs=plan.output_names)
        except Exception:
            # Half-built dispatch: nothing holds a reference yet, so
            # close() would never run — release the roles staged so far
            # here or they leak for the arena's lifetime.
            for role in staged:
                arena.release(role)
            raise
        self._specs = specs
        self._staged = tuple(staged)
        self._copy_in = tuple(copy_in)
        self._copy_back = tuple(copy_back)
        self._tasks = [(self._consts[i], a, b, i)
                       for i, (a, b) in enumerate(slabs)]

    @property
    def n_slabs(self) -> int:
        return self.plan.n_slabs

    def run(self, n: int | None = None):
        """Replay the compiled dispatch; per-slab results in slab
        order (view-writing kernels return ``None`` per slab).

        ``n``, when given, is the *live length* of a dispatch compiled
        with ``prefixes=True``: only items ``[0, n)`` need computing,
        so only the slabs that start below ``n`` run (and return
        results).  In the caller and on the thread pool the straddling
        slab runs up to :func:`~.partition.live_end` of ``n``, on views
        cut for every step on the first prefix run; out of process it
        runs whole.  Either way
        a body run with ``n`` must be elementwise: its pad is priced
        harmlessly.  ``n`` equal to the dispatch width is the full run.
        """
        if n is not None:
            if not self._prefixes:
                raise ConfigurationError(
                    f"compiled dispatch {self.tag} has no prefix runs")
            n = live_length(n, self.plan.n)
        return self.replay(n)

    def replay(self, n: int | None = None):
        """:meth:`run` for a caller that has already checked ``n``
        against the width (a plan's lane runner: ``ExecutionPlan.run``
        checks it once, before any rebind)."""
        if self.executor._closed:
            raise ConfigurationError("executor is closed")
        if self._retired:
            raise ConfigurationError(
                f"compiled dispatch {self.tag} is closed")
        tasks = self._tasks
        if n is not None:
            if self._specs is not None:
                tasks = tasks[:bisect.bisect_left(self._starts, n)]
            else:
                if self._cuts is None:
                    self._cuts = self._build_cuts()
                tasks = self._cuts[(n - 1) // live_grain(self.plan.n)]
        if self._specs is not None:
            for view, src in self._copy_in:
                np.copyto(view, src)
            if self._plan_id is not None:
                results = self.executor._get_daemon().dispatch(
                    self._plan_id, len(tasks))
            else:
                pool = self.executor._get_pool()
                futures = [pool.submit(run_slab_task, self.fn,
                                       self._specs, c, a, b, i)
                           for c, a, b, i in tasks]
                results = [f.result() for f in futures]
            for target, view in self._copy_back:
                np.copyto(target, view)
            return results
        if self._pooled_thread:
            pool = self.executor._get_pool()
            futures = [pool.submit(self.fn, arrays, c, a, b, i)
                       for arrays, c, a, b, i in tasks]
            return [f.result() for f in futures]
        return [self.fn(arrays, c, a, b, i)
                for arrays, c, a, b, i in tasks]

    def _build_cuts(self) -> list:
        """The in-caller task list of every live-length step, built
        whole on the first prefix run; later runs build no views."""
        width = self.plan.n
        grain = live_grain(width)
        return [self._cut(min(end, width), *self._cut_from)
                for end in range(grain, width + grain, grain)]

    def _cut(self, end: int, sliced: dict, shared: dict, consts: dict,
             per_slab) -> list:
        """The in-caller tasks of a run up to ``end``: the slabs that
        start below it, the straddling one cut to ``[a, end)`` with its
        ``per_slab`` constants carved for the cut."""
        tasks = self._tasks[:bisect.bisect_left(self._starts, end)]
        _, c, a, b, i = tasks[-1]
        if b > end:
            arrays = {k: v[a:end] for k, v in sliced.items()}
            arrays.update(shared)
            if per_slab is not None:
                c = {**consts, **per_slab(a, end, i)}
            tasks[-1] = (arrays, c, a, end, i)
        return tasks

    def close(self) -> None:
        """Retire the dispatch (idempotent): unpin it from the standing
        workers and release its private shared segments.  Called by
        whoever compiled it — a one-shot's ``finally``, plan close and
        eviction (:meth:`repro.plan.WorkspaceArena.close`) — and by
        executor close; in-caller/thread dispatches hold no external
        resources, so for them this only marks the dispatch closed."""
        if self._retired:
            return
        self._retired = True
        ex = self.executor
        if self._plan_id is not None and ex._daemon is not None:
            ex._daemon.unpin(self._plan_id)
        if ex._arena is not None:
            for role in self._staged:
                ex._arena.release(role)
        try:
            ex._live_dispatches.remove(self)
        except ValueError:
            pass


# ----------------------------------------------------------------------
# Process-wide default executor
# ----------------------------------------------------------------------

_DEFAULT: SlabExecutor | None = None


def default_crossover_bytes() -> int:
    """The inline/pool crossover the default executor carries: the
    measured :data:`MEASURED_CROSSOVER_BYTES`."""
    return MEASURED_CROSSOVER_BYTES


def default_executor() -> SlabExecutor:
    """The process-wide threaded executor the parallel-tier kernels use
    when none is passed: one persistent pool for the whole process.
    Carries the measured crossover so incidental tiny dispatches do
    not pay pool overhead."""
    global _DEFAULT
    if _DEFAULT is None or _DEFAULT._closed:
        _DEFAULT = SlabExecutor(
            "thread", min_parallel_bytes=default_crossover_bytes())
    return _DEFAULT

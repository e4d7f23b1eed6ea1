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
  entirely.  Arrays are staged into shared segments once per compiled
  dispatch and sliced by workers as views (*copy once, slice many*);
  per-slab task messages never carry array data.
* ``daemon`` — the standing-worker refinement of ``process``
  (:mod:`.daemon`): workers start once, each compiled dispatch is
  pinned once (the only pickling, at compile time), and every run
  moves only fixed-size slab descriptors through shared-memory rings
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

import itertools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

from ..errors import ConfigurationError
from .partition import slab_ranges
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
#: 3.2 MiB: 1.003x).  This constant is the documented *last resort*:
#: :func:`default_crossover_bytes` prefers the ``REPRO_CROSSOVER_BYTES``
#: env override, then this machine's section of the policy file
#: (``repro.tune.policy``), and only then falls back here.
MEASURED_CROSSOVER_BYTES = 1 << 21

#: Sequence for per-compiled-dispatch shared-memory role prefixes, so
#: two compiled dispatches never share (and never re-grow) each other's
#: segments.  ``next()`` on a count is atomic, so concurrent one-shots
#: from several threads still draw distinct prefixes.
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


def _arch_llc_bytes(arch) -> int:
    """LLC budget of an :class:`~repro.arch.spec.ArchSpec`: the largest
    cache level, divided among cores when shared."""
    best = 0
    for c in arch.caches:
        size = c.size // arch.total_cores if c.shared else c.size
        best = max(best, size)
    return best or DEFAULT_LLC_BYTES


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
        or ``daemon`` (standing workers fed slab descriptors through
        shared-memory rings — the process backend minus its per-call
        pickling and queue hops; see :mod:`.daemon`).
    n_workers:
        Pool width; defaults to the host CPU count.
    slab_bytes:
        Working-set budget per slab.  Defaults to half the LLC (half of
        an :class:`~repro.arch.spec.ArchSpec`'s per-core LLC share when
        ``arch`` is given, half the sysfs-detected host LLC otherwise)
        so a slab's inputs, outputs and scratch stay cache-resident
        while the next slab streams in.
    arch:
        Optional :class:`~repro.arch.spec.ArchSpec` to size slabs from
        instead of the host cache hierarchy.
    mp_context:
        Start method for the process backend (``fork``/``spawn``/
        ``forkserver``); default picks ``fork`` where the platform
        offers it.  Ignored by the other backends.
    min_parallel_bytes:
        Crossover threshold for the small-problem regression: a
        dispatch whose total working set (``n * bytes_per_item``) falls
        below it runs in-caller over the *same* slab plan instead of
        paying pool submission overhead — results are bit-identical,
        only the transport changes.  Default ``0`` keeps the fallback
        off (explicit executors always exercise their pool, which the
        pool-persistence tests rely on); the benches and the serving
        path pass the measured :data:`MEASURED_CROSSOVER_BYTES`.

    The pool is created lazily on the first pooled dispatch and
    **reused across calls** until :meth:`close` (or context-manager
    exit) — no per-call pool churn.  Shared segments and daemon pins
    belong to a :class:`CompiledDispatch` and live exactly as long as
    it does.
    """

    def __init__(self, backend: str = "thread", n_workers: int | None = None,
                 slab_bytes: int | None = None, arch=None,
                 mp_context: str | None = None,
                 min_parallel_bytes: int = 0,
                 attach: bool | str = False):
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
        if attach and backend != "daemon":
            raise ConfigurationError(
                "attach= applies only to the daemon backend")
        self.backend = backend
        self.n_workers = n_workers or os.cpu_count() or 1
        if slab_bytes is None:
            llc = _arch_llc_bytes(arch) if arch is not None else host_llc_bytes()
            slab_bytes = max(1, llc // 2)
        self.slab_bytes = slab_bytes
        self.mp_context = mp_context or _default_mp_context()
        self.min_parallel_bytes = min_parallel_bytes
        self.attach = attach
        self._pool = None          # ThreadPoolExecutor | ProcessPoolExecutor
        self._arena = None         # ShmArena (process/daemon backends)
        self._daemon = None        # SlabDaemon | DaemonClient
        self._owns_daemon = False
        self._live_dispatches = []  # CompiledDispatch registry (close)
        self._closed = False
        if attach:
            # Attach eagerly: a missing standing daemon raises
            # DaemonNotRunningError here, at construction, not deep in
            # the first dispatch; and the slab plan adopts the standing
            # fleet's width.
            self._get_daemon()

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

    def _get_daemon(self):
        """The standing worker daemon behind the ``daemon`` backend:
        a private :class:`~.daemon.SlabDaemon` started on first use, or
        — with ``attach`` — a :class:`~.daemon.DaemonClient` onto the
        CLI-managed instance (``attach=True`` uses the default state
        path, a string names one).  Raises
        :class:`~repro.errors.DaemonNotRunningError` when attaching to
        nothing, :class:`~repro.errors.RingABIError` on a daemon from
        another build."""
        if self._closed:
            raise ConfigurationError("executor is closed")
        if self._daemon is None:
            from .daemon import DaemonClient, SlabDaemon
            if self.attach:
                path = self.attach if isinstance(self.attach, str) else None
                self._daemon = DaemonClient(path)
                self._owns_daemon = False
                # The slab plan must target the standing fleet's width,
                # not whatever n_workers the caller guessed.
                self.n_workers = self._daemon.n_workers
            else:
                self._daemon = SlabDaemon(
                    self.n_workers, self.mp_context).start()
                self._owns_daemon = True
        return self._daemon

    def close(self) -> None:
        """Shut the pool down and release any shared segments; the
        executor cannot dispatch afterwards.  An owned daemon is
        stopped; an attached one is unpinned from and detached, but
        keeps running for other clients."""
        self._closed = True
        for dispatch in list(self._live_dispatches):
            dispatch.close()
        if self._daemon is not None:
            if self._owns_daemon:
                self._daemon.stop()
            else:
                self._daemon.close()   # detach rings; daemon lives on
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
        the out-of-process backends inputs are staged into shared
        segments, workers slice views of those segments, and arrays
        named in ``writes`` are copied back into the caller's buffers
        after the last slab completes.  Because every backend runs the
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
                    outputs: dict | None = None,
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
        replays the dispatch against the *same array objects*: callers
        refresh contents in place (``np.copyto``) between runs, never
        rebind.  The caller owns the handle and must
        :meth:`~CompiledDispatch.close` it (plans do so through
        :meth:`repro.plan.WorkspaceArena.adopt`); executor close
        retires whatever is still live.  This is the slab engine's half
        of the plan layer's zero-allocation contract.
        """
        return self._compile(
            fn, n, bytes_per_item, self.plan(n, bytes_per_item),
            sliced=sliced, shared=shared, writes=writes, consts=consts,
            per_slab=per_slab, outputs=outputs, tag=tag)

    def compile_lanes(self, fn, n: int, bytes_per_item: int = 8,
                      **dispatch) -> "CompiledDispatch":
        """:meth:`compile_shm` for a body that vectorises *across* its
        slab's items and whose results cannot depend on the partition
        (independent lanes, no per-slab RNG stream): the lattice
        kernels, where calls per run scale with the number of slabs.
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
                 outputs=None, tag=None) -> "CompiledDispatch":
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
            consts=consts, per_slab=per_slab,
            inline=self.inline(n, bytes_per_item),
            tag=f"{tag or 'cd'}{next(_COMPILE_SEQ)}")
        # The caller owns the handle and closes it; this registry only
        # lets executor close retire whatever is still live (daemon
        # pins, staged segments) deterministically.
        self._live_dispatches.append(dispatch)
        return dispatch

    # -- RNG -----------------------------------------------------------
    def streams(self, n: int, bytes_per_item: int = 8,
                kind: str = "mt2203", seed: int = 1,
                draws_per_slab: int = 1 << 20):
        """One independent random stream **per slab** of ``plan(n)``.

        Per-slab (rather than per-worker) assignment makes the draws a
        function of the plan alone: whichever worker executes slab ``i``
        consumes stream ``i``, so all backends are bit-identical.
        Stream kinds are the paper's (Sec. IV-D3): ``mt2203`` family
        members, counter-split ``philox``, or a block-skipped
        ``mt19937``.
        """
        from ..rng import make_streams
        n_slabs = max(1, len(self.plan(n, bytes_per_item)))
        return make_streams(n_slabs, kind=kind, seed=seed,
                            draws_per_worker=draws_per_slab)


class CompiledDispatch:
    """One slab dispatch, compiled for replay — the only code that
    slices per-slab views, stages arena roles, submits to a pool or
    pins a daemon plan.

    Built by :meth:`SlabExecutor.compile_shm`/``compile_lanes``; holds
    the frozen :class:`~.safety.WritePlan`, the prebuilt per-slab views
    and merged constants, and (out of process) the staged shared
    segments with their parent-side copy-in/copy-back views and the
    daemon pin.  :meth:`run` replays the dispatch with no validation,
    no staging and no array allocation in the parent — the caller
    refreshes input contents in place between runs.  :meth:`close`
    retires it; :meth:`SlabExecutor.map_shm` is exactly
    compile → ``run()`` → ``close()``.
    """

    def __init__(self, executor: SlabExecutor, fn, plan, *, sliced: dict,
                 shared: dict, writes, consts: dict, per_slab,
                 inline: bool, tag: str):
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
        self._specs = None
        self._copy_in = self._copy_back = ()
        if not (pooled and executor.out_of_process):
            # In-caller and thread paths call fn on prebuilt views into
            # the caller's arrays — zero-copy, results land in place.
            self._tasks = []
            for i, (a, b) in enumerate(slabs):
                arrays = {k: v[a:b] for k, v in sliced.items()}
                arrays.update(shared)
                self._tasks.append((arrays, self._consts[i], a, b, i))
            return
        # Out-of-process backends: stage every array once, into roles
        # unique to this compiled dispatch (so no other dispatch
        # re-grows — and thereby invalidates — our segments), then
        # remember the parent views for per-run input refresh and write
        # copy-back.
        arena = executor._get_arena()
        specs, copy_in, copy_back = {}, [], []
        try:
            for name, arr in {**sliced, **shared}.items():
                spec = specs[name] = arena.stage(f"{tag}.{name}", arr,
                                                 copy=False)
                spec.sliced = name in sliced
                if name in writes:
                    copy_back.append((arr, arena.view(spec)))
                else:
                    copy_in.append((arena.view(spec), arr))
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
            for name in specs:
                arena.release(f"{tag}.{name}")
            raise
        self._specs = specs
        self._copy_in = tuple(copy_in)
        self._copy_back = tuple(copy_back)
        self._tasks = [(self._consts[i], a, b, i)
                       for i, (a, b) in enumerate(slabs)]

    @property
    def n_slabs(self) -> int:
        return self.plan.n_slabs

    def run(self):
        """Replay the compiled dispatch; per-slab results in slab
        order (view-writing kernels return ``None`` per slab)."""
        if self.executor._closed:
            raise ConfigurationError("executor is closed")
        if self._retired:
            raise ConfigurationError(
                f"compiled dispatch {self.tag} is closed")
        if self._specs is not None:
            for view, src in self._copy_in:
                np.copyto(view, src)
            if self._plan_id is not None:
                results = self.executor._get_daemon().dispatch(
                    self._plan_id)
            else:
                pool = self.executor._get_pool()
                futures = [pool.submit(run_slab_task, self.fn,
                                       self._specs, c, a, b, i)
                           for c, a, b, i in self._tasks]
                results = [f.result() for f in futures]
            for target, view in self._copy_back:
                np.copyto(target, view)
            return results
        if self._pooled_thread:
            pool = self.executor._get_pool()
            futures = [pool.submit(self.fn, arrays, c, a, b, i)
                       for arrays, c, a, b, i in self._tasks]
            return [f.result() for f in futures]
        return [self.fn(arrays, c, a, b, i)
                for arrays, c, a, b, i in self._tasks]

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
        if self._specs is not None and ex._arena is not None \
                and not ex._arena._closed:
            for name in self._specs:
                ex._arena.release(f"{self.tag}.{name}")
        try:
            ex._live_dispatches.remove(self)
        except ValueError:
            pass


# ----------------------------------------------------------------------
# Process-wide default executor
# ----------------------------------------------------------------------

_DEFAULT: SlabExecutor | None = None


def default_crossover_bytes(kernel: str | None = None,
                            n: int | None = None) -> int:
    """The inline/pool crossover for this machine.

    Resolution order (ISSUE 10 satellite): the explicit
    ``REPRO_CROSSOVER_BYTES`` env override wins; then a policy
    entry for this machine's fingerprint (consulted only when a policy
    file already exists, so machines without one keep the historical
    behaviour bit for bit); finally the measured-once
    :data:`MEASURED_CROSSOVER_BYTES` constant.
    """
    from ..tune.policy import resolve_crossover_bytes

    return resolve_crossover_bytes(kernel=kernel, n=n,
                                   default=MEASURED_CROSSOVER_BYTES)


def default_executor() -> SlabExecutor:
    """The process-wide threaded executor the parallel-tier kernels use
    when none is passed: one persistent pool for the whole process.
    Carries this machine's resolved crossover (env override > policy
    file > measured constant) so incidental tiny dispatches do not
    pay pool overhead."""
    global _DEFAULT
    if _DEFAULT is None or _DEFAULT._closed:
        _DEFAULT = SlabExecutor(
            "thread", min_parallel_bytes=default_crossover_bytes())
    return _DEFAULT

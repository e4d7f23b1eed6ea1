"""Unified functional-tier registry.

The single plane through which every consumer — the CLI, the benchmark
harness, the measured Ninja-gap sweep, the validation suite — discovers
and dispatches the *functional* kernel implementations.  Each kernel's
tier module (``repro/kernels/<kernel>/tiers.py``) registers, when it is
imported:

* one :class:`KernelImpl` per ``(tier, backend)`` pair — a uniform
  callable ``fn(payload, executor) -> np.ndarray`` wrapping that tier's
  native entry point; and
* one :class:`WorkloadSpec` — how to build the kernel's shared workload
  from a :class:`~repro.config.WorkloadSizes`, how many items it prices,
  what unit its rates are quoted in, and how tightly every non-reference
  tier must agree with the reference tier on the same inputs.

Adding a tier or a backend is then one registration call; adding a
kernel is one more row in :data:`KERNELS`.  The CLI choices, the
agreement tests and the sweep coverage all follow automatically.

:data:`KERNELS` is a static table of the six kernels in the paper's
Sec. IV presentation order — the same order the modeled Ninja table and
its golden baseline use — each with its package.  The registry
imports no kernel itself: a lookup of one kernel (``workload``,
``impl``, ``impls(kernel)``) imports that kernel's tier module only, so
a gateway pricing Black-Scholes never loads the other five; a listing
(``kernels()``, ``impls()``) imports all six.  Listings come out in
table order whatever order the kernels were first looked up in.
"""

from __future__ import annotations

import importlib
import itertools
from dataclasses import dataclass, field
from typing import Callable

from .errors import ConfigurationError

#: Execution backends a functional tier may register for.  ``serial``
#: runs in the caller; ``thread`` dispatches LLC-sized slabs to the
#: persistent :class:`~repro.parallel.slab.SlabExecutor` pool;
#: ``process`` dispatches the same slabs to a persistent process pool
#: over shared-memory segments (:mod:`repro.parallel.shm`), sidestepping
#: the GIL on the kernels' Python-bound portions; ``daemon`` feeds the
#: same slabs to the standing worker daemon through shared-memory rings
#: (:mod:`repro.parallel.daemon`) — the process backend minus its
#: per-call pickling and queue hops.
BACKENDS = ("serial", "thread", "process", "daemon")

_SEQ = itertools.count()


@dataclass(frozen=True)
class KernelImpl:
    """One registered functional implementation.

    ``fn(payload, executor)`` prices the registry workload ``payload``
    (built by the kernel's :class:`WorkloadSpec`) and returns either a
    1-D result array or, for tiers that declare more than one output,
    a :class:`~repro.results.ResultSlab` whose names match
    ``outputs``; ``executor`` is the
    :class:`~repro.parallel.slab.SlabExecutor` matching ``backend``
    (serial tiers may ignore it).  ``outputs`` is the tier's declared
    output schema — consumers coerce either return shape with
    :func:`repro.results.as_result_slab` and compare/digest outputs by
    name.

    ``planner(payload, executor, arena)``, when registered, compiles the
    tier for repeated same-shape calls: it reserves every buffer the
    tier needs in the :class:`~repro.plan.WorkspaceArena`, freezes the
    slab dispatch (handing it to the arena), pre-seeds RNG stream
    state, and returns a zero-argument ``runner`` that prices the
    bound payload with zero hot-path array allocations.  Every tier registered on a pooled
    backend has one, and its ``fn`` is the planner's one-shot
    (:func:`repro.plan.one_shot`: compile, run once, retire) — a slab
    tier's dispatch is declared in exactly one place.
    """

    kernel: str
    tier: str                      # functional tier name, e.g. "tiled"
    level: "OptLevel"              # ladder rung (kernels.levels)
    backend: str                   # "serial"|"thread"|"process"|"daemon"
    fn: Callable
    checked: bool = True           # compared against the reference tier
    tolerance: float | None = None  # per-impl override of the workload tol
    outputs: tuple = ("price",)    # named outputs fn fills, in order
    planner: Callable | None = field(default=None, compare=False)
    seq: int = field(default=0, compare=False)

    @property
    def key(self) -> tuple:
        return (self.kernel, self.tier, self.backend)

    @property
    def label(self) -> str:
        return f"{self.kernel}/{self.tier}[{self.backend}]"

    def plan(self, payload, executor, arena):
        """Compile this impl against ``payload``: the planner's
        ``runner``, or ``None`` when the tier registered no planner
        (callers fall back to wrapping ``fn``)."""
        if self.planner is None:
            return None
        return self.planner(payload, executor, arena)


@dataclass(frozen=True)
class WorkloadSpec:
    """Typed description of a kernel's shared benchmark workload.

    Attributes
    ----------
    build:
        ``build(sizes, seed) -> payload``; the payload is the object
        every registered tier of the kernel prices.
    items:
        ``items(payload) -> int`` — the count rates are quoted against
        (options, paths, numbers).
    unit / scale:
        Display unit for throughput and the multiplier taking items/s
        into it (e.g. ``1e-6`` and ``" Mopts/s"``) — the per-kernel
        metadata that used to live in the CLI's ``_FIGSCALE`` table.
    tolerance:
        Default absolute agreement tolerance of any checked tier versus
        the reference tier on the same payload.
    bytes_per_item:
        Per-item working-set hint for slab planning.
    modeled_gap:
        Whether the kernel's *performance model* has a reference tier
        and therefore appears in the modeled Ninja-gap table (the rng
        kernel does not).
    greeks_tier:
        The kernel's Greeks-capable multi-output tier (``None`` until
        the kernel registers a risk workload).
    """

    kernel: str
    build: Callable
    items: Callable
    unit: str
    scale: float
    tolerance: float = 1e-10
    bytes_per_item: int = 8
    modeled_gap: bool = True
    greeks_tier: str | None = None


#: The paper's kernels in Sec. IV order, each with its package: a
#: lookup imports ``<package>.tiers`` (whose import registers the
#: kernel's tiers and workload); ``build_model`` imports
#: ``<package>.model``.
KERNELS = (
    ("black_scholes", "repro.kernels.black_scholes"),
    ("binomial", "repro.kernels.binomial"),
    ("brownian", "repro.kernels.brownian"),
    ("monte_carlo", "repro.kernels.monte_carlo"),
    ("crank_nicolson", "repro.kernels.crank_nicolson"),
    ("rng", "repro.kernels.rng_kernel"),
)
PACKAGES = dict(KERNELS)
_ORDER = {kernel: i for i, (kernel, _) in enumerate(KERNELS)}


def _rank(kernel: str) -> int:
    """Paper position; a kernel registered outside the table sorts
    last, in registration order."""
    return _ORDER.get(kernel, len(_ORDER))


_WORKLOADS: dict = {}              # kernel -> WorkloadSpec
_IMPLS: dict = {}                  # (kernel, tier, backend) -> KernelImpl


def _ensure_registered(kernel: str | None = None) -> None:
    """Import ``kernel``'s tier module, or every kernel's when ``kernel``
    is ``None`` or not in :data:`KERNELS`."""
    if kernel in _WORKLOADS:
        return
    for name in ((kernel,) if kernel in PACKAGES else PACKAGES):
        importlib.import_module(PACKAGES[name] + ".tiers")


# ----------------------------------------------------------------------
# Registration (called by the kernels' tier modules at import time)
# ----------------------------------------------------------------------

def register_workload(spec: WorkloadSpec) -> WorkloadSpec:
    if spec.kernel in _WORKLOADS:
        raise ConfigurationError(
            f"workload for kernel {spec.kernel!r} already registered"
        )
    if spec.scale <= 0:
        raise ConfigurationError(f"{spec.kernel}: scale must be positive")
    _WORKLOADS[spec.kernel] = spec
    return spec


def register_impl(kernel: str, tier: str, level, fn: Callable,
                  backends=("serial",), checked: bool = True,
                  tolerance: float | None = None,
                  outputs=("price",),
                  planner: Callable | None = None):
    """Register ``fn`` (and optionally its plan compiler ``planner``)
    as kernel/tier on each backend; returns the created
    :class:`KernelImpl` entries.  ``outputs`` declares the named
    outputs ``fn`` fills — ``("price",)`` for classic single-vector
    tiers, a longer tuple for Greeks/risk tiers returning a
    :class:`~repro.results.ResultSlab`."""
    outputs = tuple(outputs)
    if not outputs:
        raise ConfigurationError(
            f"{kernel}/{tier}: outputs schema must name at least one "
            f"output")
    if len(set(outputs)) != len(outputs):
        raise ConfigurationError(
            f"{kernel}/{tier}: duplicate names in outputs {outputs}")
    made = []
    for backend in backends:
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; want one of {BACKENDS}"
            )
        key = (kernel, tier, backend)
        if key in _IMPLS:
            raise ConfigurationError(
                f"impl {kernel}/{tier}[{backend}] already registered"
            )
        impl = KernelImpl(kernel=kernel, tier=tier, level=level,
                          backend=backend, fn=fn, checked=checked,
                          tolerance=tolerance, outputs=outputs,
                          planner=planner, seq=next(_SEQ))
        _IMPLS[key] = impl
        made.append(impl)
    return made


# ----------------------------------------------------------------------
# Accessors (every consumer dispatches through these)
# ----------------------------------------------------------------------

def kernels() -> tuple:
    """Registered kernel names, in the paper's Sec. IV order."""
    _ensure_registered()
    return tuple(sorted(_WORKLOADS, key=_rank))


def workload(kernel: str) -> WorkloadSpec:
    _ensure_registered(kernel)
    try:
        return _WORKLOADS[kernel]
    except KeyError:
        raise ConfigurationError(
            f"no workload registered for kernel {kernel!r}; "
            f"known: {list(kernels())}"
        ) from None


def impls(kernel: str | None = None, backend: str | None = None) -> tuple:
    """Registered implementations, ladder-ordered (level, then paper
    kernel order, then registration order within the kernel),
    optionally filtered by kernel and backend."""
    _ensure_registered(kernel)
    out = [i for i in _IMPLS.values()
           if (kernel is None or i.kernel == kernel)
           and (backend is None or i.backend == backend)]
    out.sort(key=lambda i: (i.level.order, _rank(i.kernel), i.seq))
    return tuple(out)


def impl(kernel: str, tier: str, backend: str = "serial") -> KernelImpl:
    _ensure_registered(kernel)
    try:
        return _IMPLS[(kernel, tier, backend)]
    except KeyError:
        have = sorted(f"{t}[{b}]" for k, t, b in _IMPLS if k == kernel)
        raise ConfigurationError(
            f"no impl {kernel}/{tier}[{backend}]; registered for "
            f"{kernel!r}: {have}"
        ) from None


def tiers(kernel: str) -> tuple:
    """Tier names of one kernel in ladder order (deduplicated across
    backends)."""
    seen = []
    for i in impls(kernel):
        if i.tier not in seen:
            seen.append(i.tier)
    if not seen:
        raise ConfigurationError(f"no tiers registered for {kernel!r}")
    return tuple(seen)


def reference_impl(kernel: str) -> KernelImpl:
    """The kernel's serial reference tier (the agreement oracle and the
    denominator of the measured Ninja gap)."""
    from .kernels.levels import OptLevel
    for i in impls(kernel, backend="serial"):
        if i.level is OptLevel.REFERENCE:
            return i
    raise ConfigurationError(
        f"kernel {kernel!r} has no registered reference tier"
    )


def parallel_tier(kernel: str) -> str | None:
    """Name of the kernel's thread-backend tier, or ``None``."""
    for i in impls(kernel, backend="thread"):
        return i.tier
    return None


def parallel_kernels() -> tuple:
    """Kernels that registered a thread backend, registration-ordered."""
    return tuple(k for k in kernels() if parallel_tier(k) is not None)


def greeks_tier(kernel: str) -> str | None:
    """Name of the kernel's Greeks-capable multi-output tier, or
    ``None`` when the kernel registered no risk workload."""
    return workload(kernel).greeks_tier


def greeks_kernels() -> tuple:
    """Kernels with a Greeks-capable tier, registration-ordered."""
    return tuple(k for k in kernels() if greeks_tier(k) is not None)

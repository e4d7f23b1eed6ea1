"""Kernel model infrastructure: tier ladders, modeled results and the
model registry (the ladder's levels live in :mod:`.levels`).

Every benchmark kernel exposes the same shape:

* one *functional* implementation per optimization tier (returns correct
  prices; runs on the host in NumPy);
* a *performance model* that synthesises per-item
  :class:`~repro.simd.trace.OpTrace` objects for each (tier, architecture)
  pair — the paper's "intuitive performance models" (Sec. III-B) — from
  which the cost model produces modeled SNB-EP/KNC throughput;
* a tier ladder describing what each level adds, used by the figure
  generators to draw the stacked bars.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field

from .. import registry
from ..arch.cost import CostModel, ExecutionContext
from ..arch.spec import PLATFORMS, ArchSpec
from ..errors import ConfigurationError
from ..simd.trace import OpTrace
from .levels import OptLevel


@dataclass(frozen=True)
class Tier:
    """One rung of a kernel's optimization ladder."""

    level: OptLevel
    label: str                 # the figure's bar label
    description: str


@dataclass
class TierPerf:
    """Modeled performance of one tier on one architecture."""

    tier: Tier
    arch: ArchSpec
    trace: OpTrace
    ctx: ExecutionContext
    throughput: float          # items / second, whole chip

    @property
    def cycles_per_item(self) -> float:
        model = CostModel(self.arch)
        return (model.compute_cycles(self.trace, self.ctx).total_cycles
                / self.trace.items)


@dataclass
class KernelModel:
    """A kernel's full modeled ladder: tiers × platforms.

    Subclass-free by design: each kernel's ``model.py`` builds one of
    these from its trace constructors.
    """

    name: str
    unit: str                           # e.g. "options/s", "paths/s"
    tiers: tuple
    perfs: dict = field(default_factory=dict)   # (tier label, arch name) -> TierPerf

    def add(self, tier: Tier, arch: ArchSpec, trace: OpTrace,
            ctx: ExecutionContext = ExecutionContext()) -> TierPerf:
        if trace.items <= 0:
            raise ConfigurationError(
                f"{self.name}/{tier.label}: trace needs a positive item count"
            )
        tp = TierPerf(
            tier=tier, arch=arch, trace=trace, ctx=ctx,
            throughput=CostModel(arch).throughput(trace, ctx),
        )
        self.perfs[(tier.label, arch.name)] = tp
        return tp

    def perf(self, tier_label: str, arch_name: str) -> TierPerf:
        try:
            return self.perfs[(tier_label, arch_name)]
        except KeyError:
            raise ConfigurationError(
                f"{self.name}: no modeled perf for tier {tier_label!r} on "
                f"{arch_name!r}"
            ) from None

    def ladder(self, arch_name: str):
        """Tier performances in ladder order for one platform."""
        out = []
        for t in self.tiers:
            key = (t.label, arch_name)
            if key in self.perfs:
                out.append(self.perfs[key])
        return out

    def best(self, arch_name: str) -> TierPerf:
        rungs = self.ladder(arch_name)
        if not rungs:
            raise ConfigurationError(
                f"{self.name}: no tiers modeled for {arch_name!r}"
            )
        return max(rungs, key=lambda tp: tp.throughput)

    def reference(self, arch_name: str) -> TierPerf:
        rungs = self.ladder(arch_name)
        if not rungs:
            raise ConfigurationError(
                f"{self.name}: no tiers modeled for {arch_name!r}"
            )
        return rungs[0]

    def ninja_gap(self, arch_name: str) -> float:
        """Best-tier / first-tier throughput — the paper's Ninja gap."""
        return (self.best(arch_name).throughput
                / self.reference(arch_name).throughput)


#: Model builders registered at run time, beside the six kernels'
#: ``model.py``, which ``build_model`` imports (and with them the
#: tracing machine and the cost model) the first time each is built.
_MODEL_BUILDERS = {}


def register_model(name: str, builder) -> None:
    if name in _MODEL_BUILDERS or name in registry.PACKAGES:
        raise ConfigurationError(f"kernel model {name!r} already registered")
    _MODEL_BUILDERS[name] = builder


def build_model(name: str, **kwargs) -> KernelModel:
    """Build a kernel's modeled ladder on both platforms."""
    if name in registry.PACKAGES:
        model = importlib.import_module(registry.PACKAGES[name] + ".model")
        return model.build(**kwargs)
    try:
        builder = _MODEL_BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel model {name!r}; known: {registered_models()}"
        ) from None
    return builder(**kwargs)


def registered_models():
    return sorted({*registry.PACKAGES, *_MODEL_BUILDERS})

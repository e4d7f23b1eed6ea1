"""Design-space exploration, plus the policy table perfbench probes.

* :mod:`repro.tune.space` sweeps the parametric machine model (cores ×
  SIMD width × LLC × bandwidth) and maps where each kernel's Ninja gap
  and serial/parallel crossover move (``python -m repro dse``);
* :mod:`repro.tune.policy` is a per-machine table file that nothing in
  the runtime reads.  It stays while perfbench times its ``lookup`` and
  ``load``.  The runtime's one inline-vs-pool input is
  ``SlabExecutor.min_parallel_bytes``.
"""

from .policy import PolicyEntry, PolicyTable, entry_key, shape_bucket
from .space import (DEFAULT_AXES, DISPATCH_OVERHEAD_S, SMOKE_AXES,
                    DesignPoint, anchor_rows, crossover_items,
                    design_grid, kernel_surface, modeled_crossover_bytes,
                    rebuild_model, variant_for)

__all__ = [
    "PolicyEntry", "PolicyTable", "entry_key", "shape_bucket",
    "DesignPoint", "design_grid", "variant_for", "kernel_surface",
    "anchor_rows", "crossover_items", "modeled_crossover_bytes",
    "rebuild_model",
    "DEFAULT_AXES", "SMOKE_AXES", "DISPATCH_OVERHEAD_S",
]

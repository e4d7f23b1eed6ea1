"""Design-space exploration and the dispatch policy table.

Two halves of one idea — the paper's best code shape is per-kernel and
per-platform, so the runtime's dispatch constants should be data,
derived from machine facts and fixed before the run:

* :mod:`repro.tune.space` sweeps the parametric machine model (cores ×
  SIMD width × LLC × bandwidth) and maps where each kernel's Ninja gap
  and serial/parallel crossover move (``python -m repro dse``);
* :mod:`repro.tune.policy` persists per-machine dispatch policies keyed
  by :func:`~repro.arch.host.machine_fingerprint`, bootstrapped from
  that model and read when a dispatch is compiled.
"""

from .policy import (BOOTSTRAP_MAX_BYTES, BOOTSTRAP_MIN_BYTES,
                     CROSSOVER_ENV, POLICY_PATH_ENV, PolicyEntry,
                     PolicyTable, bootstrap, default_policy_path,
                     entry_key, load_policy, resolve_crossover_bytes,
                     shape_bucket)
from .space import (DEFAULT_AXES, DISPATCH_OVERHEAD_S, SMOKE_AXES,
                    DesignPoint, anchor_rows, crossover_items,
                    design_grid, host_like_spec, kernel_surface,
                    modeled_crossover_bytes, rebuild_model, variant_for)

__all__ = [
    "PolicyEntry", "PolicyTable", "bootstrap", "default_policy_path",
    "entry_key", "load_policy", "resolve_crossover_bytes", "shape_bucket",
    "CROSSOVER_ENV", "POLICY_PATH_ENV",
    "BOOTSTRAP_MIN_BYTES", "BOOTSTRAP_MAX_BYTES",
    "DesignPoint", "design_grid", "variant_for", "kernel_surface",
    "anchor_rows", "crossover_items", "modeled_crossover_bytes",
    "rebuild_model", "host_like_spec",
    "DEFAULT_AXES", "SMOKE_AXES", "DISPATCH_OVERHEAD_S",
]

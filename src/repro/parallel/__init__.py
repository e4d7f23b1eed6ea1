"""Thread-level-parallelism substrate: domain decomposition, the
zero-copy slab engine behind the parallel kernel tier (the OpenMP
stand-in), and the standing worker daemon with its shared-memory
ring-buffer dispatch fabric."""

from .daemon import DaemonClient, SlabDaemon, default_state_path, serve
from .partition import doubling_counts, slab_ranges
from .ring import (ABI_VERSION, Ring, guard_unlink, install_signal_guards,
                   unguard)
from .safety import (WritePlan, freeze_write_plan, validate_slab_plan,
                     validate_write_plan)
from .shm import ArraySpec, ShmArena, run_slab_task
from .slab import (BACKENDS, DEFAULT_LLC_BYTES, MEASURED_CROSSOVER_BYTES,
                   OUT_OF_PROCESS_BACKENDS, CompiledDispatch, SlabExecutor,
                   default_crossover_bytes, default_executor,
                   host_llc_bytes)

__all__ = [
    "CompiledDispatch", "SlabExecutor",
    "default_crossover_bytes", "default_executor", "host_llc_bytes",
    "BACKENDS", "DEFAULT_LLC_BYTES", "MEASURED_CROSSOVER_BYTES",
    "OUT_OF_PROCESS_BACKENDS",
    "ArraySpec", "ShmArena", "run_slab_task",
    "ABI_VERSION", "Ring", "guard_unlink", "install_signal_guards",
    "unguard",
    "DaemonClient", "SlabDaemon", "default_state_path", "serve",
    "doubling_counts", "slab_ranges",
    "WritePlan", "freeze_write_plan",
    "validate_slab_plan", "validate_write_plan",
]

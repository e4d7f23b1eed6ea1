"""Thread-level-parallelism substrate: domain decomposition, the
zero-copy slab engine behind the parallel kernel tier (the OpenMP
stand-in), and the executor-owned worker daemon with its shared-memory
ring-buffer dispatch fabric."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".daemon": ("SlabDaemon",),
    ".partition": ("doubling_counts", "slab_ranges"),
    ".ring": ("ABI_VERSION", "Ring", "guard_unlink", "install_signal_guards",
              "unguard"),
    ".safety": ("WritePlan", "freeze_write_plan", "validate_slab_plan",
                "validate_write_plan"),
    ".shm": ("ArraySpec", "ShmArena", "run_slab_task"),
    ".slab": ("BACKENDS", "DEFAULT_LLC_BYTES", "MEASURED_CROSSOVER_BYTES",
              "OUT_OF_PROCESS_BACKENDS", "CompiledDispatch", "SlabExecutor",
              "default_crossover_bytes", "host_llc_bytes"),
})

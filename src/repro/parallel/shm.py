"""Shared-memory staging for the process backend.

The thread backend hands workers zero-copy views into the caller's
arrays; a process pool cannot, so this module provides the next-best
contract — **copy once, slice many**.  The parent stages each named
array into a persistent :mod:`multiprocessing.shared_memory` segment
(one ``memcpy`` per run of a compiled dispatch), and every worker
maps the segment and slices its slab as a zero-copy view, exactly as
the thread backend slices the caller's arrays.  Per-slab task messages
therefore carry only ``(fn, segment specs, consts, start, stop, slab)``
— never array payloads — so dispatch cost is independent of the
workload size, the property the paper's Sec. IV threading layer gets
from its shared address space.

Layout of a dispatch
--------------------
* :class:`ShmArena` (parent side) owns named segments keyed by array
  *role*.  Every compiled dispatch stages into roles of its own, kept
  for as long as the dispatch lives — across all its runs — and
  released (closed and unlinked) when it retires; a one-shot therefore
  leaves no segment behind.  Whatever is still staged is unlinked when
  the owning executor closes.
* :class:`ArraySpec` describes one staged array: segment name, shape,
  dtype, and whether workers slice it per slab (``sliced``) or read it
  whole (shared inputs like a common random stream).
* :func:`run_slab_task` (worker side) attaches segments through a
  bounded per-process cache — a pool worker maps a live dispatch's
  segments once and forgets the least recently used beyond
  :data:`_ATTACH_LIMIT`; daemon workers map at pin and unmap at unpin —
  rebuilds the NumPy views and calls the kernel's slab function.

Workers attach existing segments; they never create or unlink.  On
Pythons where attaching registers the segment with the resource
tracker (3.8–3.12), the worker unregisters it again so the tracker
does not unlink a segment the parent still owns.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory

import numpy as np

from ..errors import ConfigurationError

#: Generation separator inside segment names; bumping the generation
#: (on growth) changes the name, which is what invalidates worker-side
#: attach caches.
_GEN_SEP = "g"

_ARENA_SEQ = 0


def _untracked_attach(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without resource-tracker ownership.

    The attach must not *register* with the tracker at all: under the
    ``fork`` start method workers share the parent's tracker process, so
    a register-then-unregister pair from a worker would strip the
    parent's own registration and turn the parent's eventual ``unlink``
    into tracker noise.
    """
    try:
        # Python >= 3.13 supports opting out directly.
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    try:
        from multiprocessing import resource_tracker
        orig = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
    except Exception:                       # tracker layout changed
        return shared_memory.SharedMemory(name=name)
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig


class ArraySpec:
    """Picklable description of one staged array (worker view recipe)."""

    __slots__ = ("segment", "shape", "dtype", "sliced")

    def __init__(self, segment: str, shape: tuple, dtype: str,
                 sliced: bool):
        self.segment = segment
        self.shape = shape
        self.dtype = dtype
        self.sliced = sliced

    def __getstate__(self):
        return (self.segment, self.shape, self.dtype, self.sliced)

    def __setstate__(self, state):
        self.segment, self.shape, self.dtype, self.sliced = state


class ShmArena:
    """Parent-side pool of named shared-memory segments.

    Segments are keyed by *role* (a compiled dispatch's tag plus the
    kernel's array name); a role's segment persists until
    :meth:`release`, growing geometrically if re-staged larger — so
    the runs of a compiled dispatch allocate nothing.  The arena owns
    every segment it creates: :meth:`close` closes and unlinks them
    all.
    """

    def __init__(self):
        global _ARENA_SEQ
        _ARENA_SEQ += 1
        self._tag = f"repro{os.getpid()}x{_ARENA_SEQ}"
        self._segments: dict = {}     # role -> SharedMemory
        self._by_name: dict = {}      # segment name -> SharedMemory
        self._gens: dict = {}         # role -> generation counter
        self._closed = False
        # Crash hygiene: unlink every owned segment at interpreter exit
        # (atexit-backed, and signal-backed wherever
        # ring.install_signal_guards ran) so an aborted run does not
        # strand /dev/shm segments.
        from .ring import guard_unlink
        guard_unlink(self)

    def _name(self, role: str, gen: int) -> str:
        return f"{self._tag}_{role}{_GEN_SEP}{gen}"

    def segment(self, role: str, nbytes: int) -> shared_memory.SharedMemory:
        """The segment backing ``role``, grown to at least ``nbytes``."""
        if self._closed:
            raise ConfigurationError("arena is closed")
        if nbytes < 1:
            raise ConfigurationError("nbytes must be >= 1")
        shm = self._segments.get(role)
        if shm is not None and shm.size >= nbytes:
            return shm
        if shm is not None:
            self._by_name.pop(shm.name, None)
            shm.close()
            shm.unlink()
        gen = self._gens.get(role, 0) + 1
        self._gens[role] = gen
        # Geometric growth so repeated small increases do not re-create
        # (and re-attach) segments every call.
        size = max(nbytes, 2 * shm.size if shm is not None else nbytes)
        shm = shared_memory.SharedMemory(
            name=self._name(role, gen), create=True, size=size)
        self._segments[role] = shm
        self._by_name[shm.name] = shm
        return shm

    def stage(self, role: str, array: np.ndarray,
              copy: bool = True) -> ArraySpec:
        """Stage ``array`` into the role's segment; returns the spec
        workers rebuild their view from.  ``copy=False`` reserves room
        without transferring contents (pure-output arrays)."""
        array = np.asarray(array)
        shm = self.segment(role, array.nbytes or 1)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        if copy:
            np.copyto(view, array)
        return ArraySpec(shm.name, array.shape, array.dtype.str,
                         sliced=False)

    def view(self, spec: ArraySpec) -> np.ndarray:
        """Parent-side view of a staged array (for copy-back)."""
        shm = self._by_name[spec.segment]
        return np.ndarray(spec.shape, dtype=spec.dtype, buffer=shm.buf)

    def release(self, role: str) -> None:
        """Close and unlink one role's segment (idempotent).

        Compiled dispatches stage into roles unique to themselves, so
        retiring a dispatch (plan-cache eviction, daemon unpin) can
        release its segments without touching any other dispatch."""
        shm = self._segments.pop(role, None)
        if shm is None:
            return
        self._by_name.pop(shm.name, None)
        self._gens.pop(role, None)
        try:
            shm.close()
            shm.unlink()
        except (FileNotFoundError, BufferError):
            pass

    def close(self) -> None:
        """Close and unlink every owned segment (idempotent)."""
        self._closed = True
        from .ring import unguard
        unguard(self)
        for shm in self._segments.values():
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()
        self._by_name.clear()

    def __del__(self):
        if not getattr(self, "_closed", True):
            self.close()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-process attach cache: segment name -> SharedMemory, least
#: recently used first.  Keyed by the full (generation-bearing) name, so
#: a grown segment is re-attached exactly once and its predecessor is
#: evicted.
_ATTACHED: dict = {}

#: Most mappings a pool worker keeps between tasks.  Every compiled
#: dispatch stages into roles of its own and pool workers are never told
#: when one retires, so without a bound each retired dispatch would
#: strand one mapping (two fds) per staged array in every worker.
_ATTACH_LIMIT = 64


def _attach(name: str) -> shared_memory.SharedMemory:
    shm = _ATTACHED.pop(name, None)
    if shm is None:
        # Evict stale generations of the same role so long-lived
        # workers do not accumulate dead mappings.
        prefix = name.rsplit(_GEN_SEP, 1)[0] + _GEN_SEP
        for stale in [n for n in _ATTACHED if n.startswith(prefix)]:
            _ATTACHED.pop(stale).close()
        shm = _untracked_attach(name)
    _ATTACHED[name] = shm             # (re-)insert: most recently used
    return shm


def _detach(name: str) -> None:
    """Close and forget one attached segment (no-op when not attached).
    The caller must hold no view of it: NumPy views do not keep a
    mapping alive."""
    shm = _ATTACHED.pop(name, None)
    if shm is not None:
        shm.close()


def run_slab_task(fn, specs: dict, consts: dict, a: int, b: int,
                  slab: int):
    """Execute one slab in a worker process.

    Rebuilds each :class:`ArraySpec` as a NumPy view over its shared
    segment (sliced ``[a:b]`` along axis 0 when the spec says so — the
    worker-side mirror of the thread backend's view slicing) and calls
    ``fn(arrays, consts, a, b, slab)``.  Runs equally well in-process,
    which is how the serial path of a process executor and the test
    suite exercise it.
    """
    arrays = {}
    for name, spec in specs.items():
        shm = _attach(spec.segment)
        arr = np.ndarray(spec.shape, dtype=spec.dtype, buffer=shm.buf)
        arrays[name] = arr[a:b] if spec.sliced else arr
    try:
        return fn(arrays, consts, a, b, slab)
    finally:
        # Task views die with this frame, so the least recently used
        # mappings beyond the bound can be closed here — never mid-task.
        while len(_ATTACHED) > max(_ATTACH_LIMIT, len(specs)):
            _detach(next(iter(_ATTACHED)))

"""Shared memory for the out-of-process backends.

The thread backend hands workers zero-copy views into the caller's
arrays; a process cannot see the caller's heap, so this module puts
the arrays where both sides can — named
:mod:`multiprocessing.shared_memory` segments — and keeps a dispatch's
per-run traffic free of array data.  Two kinds of array reach a
worker:

* **Resident** arrays already live in one of the executor's segments:
  everything a plan compiles on a ``process``/``daemon`` executor (its
  :class:`~repro.plan.WorkspaceArena` reservations and its copy of the
  payload's streamed arrays).  A dispatch references them in place, as
  ``(segment, offset)`` (:meth:`ShmArena.locate`), so a warm run
  copies nothing — the property the paper's Sec. IV threading layer
  gets from its shared address space.
* **Caller-owned** arrays (a plain ``compile_shm``/``map_shm`` call)
  are *staged*: copied into a segment of their own before each run and,
  for written arrays, copied back after it.

Either way workers slice their slab out of the segment as a zero-copy
view, so per-slab task messages carry only ``(fn, segment specs,
consts, start, stop, slab)`` — never array payloads.

Layout of a dispatch
--------------------
* :class:`ShmArena` (parent side) owns named segments keyed by *role*:
  a compiled dispatch's staged arrays and a workspace arena's chunks.
  A role is sized once, when it is first staged, and lives until
  :meth:`ShmArena.release` (dispatch retire, plan close); whatever is
  left is released when the owning executor closes.  Release unlinks
  the segment's *name*; the parent's views are built over a mapping of
  their own that they keep alive, so a result read after its plan and
  executor closed is still valid, and the memory goes when the last
  view does.
* :class:`ArraySpec` describes one array to a worker: segment name,
  byte offset, shape, dtype, and whether workers slice it per slab
  (``sliced``) or read it whole (shared inputs like a common random
  stream).
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

import mmap
import os
from multiprocessing import shared_memory

import numpy as np

from ..errors import ConfigurationError
from .ring import guard_unlink, reap_dead_owners, unguard

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
    """Picklable description of one array in a segment (worker view
    recipe): the array starts ``offset`` bytes into ``segment``."""

    __slots__ = ("segment", "shape", "dtype", "sliced", "offset")

    def __init__(self, segment: str, shape: tuple, dtype: str,
                 sliced: bool, offset: int = 0):
        self.segment = segment
        self.shape = shape
        self.dtype = dtype
        self.sliced = sliced
        self.offset = offset

    def view(self, buf) -> np.ndarray:
        """The array over ``buf``, a mapping of :attr:`segment`."""
        return np.ndarray(self.shape, dtype=self.dtype, buffer=buf,
                          offset=self.offset)

    def __getstate__(self):
        return (self.segment, self.shape, self.dtype, self.sliced,
                self.offset)

    def __setstate__(self, state):
        (self.segment, self.shape, self.dtype, self.sliced,
         self.offset) = state


class _Segment:
    """One segment the parent created, seen through a mapping of its
    own.  Views are built over :attr:`mm` — never over
    ``SharedMemory.buf``, whose ``close()`` unmaps under live NumPy
    views — so each view keeps the mapping alive: :meth:`unlink`
    removes the name, and the pages go when the last view does."""

    __slots__ = ("name", "size", "mm", "addr", "_shm")

    def __init__(self, name: str, size: int):
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        try:
            # No public accessor for the fd; mmap dups it.
            self.mm = mmap.mmap(shm._fd, size)
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        shm.close()                 # its mapping and fd; ours stay
        self._shm = shm
        self.name, self.size = shm.name, size
        self.addr = self.view((1,), np.uint8).__array_interface__["data"][0]

    def view(self, shape, dtype, offset: int = 0) -> np.ndarray:
        return np.ndarray(shape, dtype=dtype, buffer=self.mm, offset=offset)

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


class ShmArena:
    """Parent-side pool of named shared-memory segments.

    Segments are keyed by *role* (a compiled dispatch's tag plus the
    kernel's array name, or a workspace arena's chunk).  A role is sized
    once, by its first :meth:`segment` call, and persists until
    :meth:`release`: re-staging it at no more than that size reuses the
    segment — so the runs of a compiled dispatch allocate nothing — and
    re-staging it larger is an error.  The arena owns every segment it
    creates: :meth:`close` unlinks them all.
    """

    def __init__(self):
        global _ARENA_SEQ
        reap_dead_owners()
        _ARENA_SEQ += 1
        self._tag = f"repro{os.getpid()}x{_ARENA_SEQ}"
        self._segments: dict = {}     # role -> _Segment
        self._by_name: dict = {}      # segment name -> _Segment
        self._closed = False
        # Crash hygiene: unlink every owned segment at interpreter exit
        # (atexit-backed, and signal-backed wherever
        # ring.install_signal_guards ran) so an aborted run does not
        # strand /dev/shm segments.
        guard_unlink(self)

    def segment(self, role: str, nbytes: int) -> _Segment:
        """The segment backing ``role``, created at ``nbytes`` on the
        role's first call.  Raises :class:`ConfigurationError` if the
        existing segment is smaller than ``nbytes``; it is left as is."""
        if self._closed:
            raise ConfigurationError("arena is closed")
        if nbytes < 1:
            raise ConfigurationError("nbytes must be >= 1")
        seg = self._segments.get(role)
        if seg is None:
            seg = _Segment(f"{self._tag}_{role}", nbytes)
            self._segments[role] = seg
            self._by_name[seg.name] = seg
        elif seg.size < nbytes:
            raise ConfigurationError(
                f"shared-memory role {role!r} holds {seg.size} bytes and "
                f"cannot be re-staged at {nbytes}: a role is sized once")
        return seg

    def stage(self, role: str, array: np.ndarray,
              copy: bool = True) -> ArraySpec:
        """Stage ``array`` into the role's segment; returns the spec
        workers rebuild their view from.  ``copy=False`` reserves room
        without transferring contents (pure-output arrays)."""
        array = np.asarray(array)
        seg = self.segment(role, array.nbytes or 1)
        if copy:
            np.copyto(seg.view(array.shape, array.dtype), array)
        return ArraySpec(seg.name, array.shape, array.dtype.str,
                         sliced=False)

    def locate(self, array: np.ndarray) -> ArraySpec | None:
        """The spec of ``array`` *in place* when it is C-contiguous and
        lies in one of this arena's live segments (a workspace-arena
        buffer or a view of one), else ``None``: such an array is never
        staged, workers map it where it is."""
        if array.nbytes == 0 or not array.flags.c_contiguous:
            return None
        addr = array.__array_interface__["data"][0]
        for seg in self._segments.values():
            offset = addr - seg.addr
            if 0 <= offset and offset + array.nbytes <= seg.size:
                return ArraySpec(seg.name, array.shape, array.dtype.str,
                                 sliced=False, offset=offset)
        return None

    def view(self, spec: ArraySpec) -> np.ndarray:
        """Parent-side view of an array in one of the arena's segments
        (for copy-in and copy-back)."""
        return spec.view(self._by_name[spec.segment].mm)

    def release(self, role: str) -> None:
        """Unlink one role's segment (idempotent).

        Compiled dispatches and workspace arenas use roles unique to
        themselves, so retiring one (plan-cache eviction, daemon unpin)
        releases its segments without touching any other.  Views of the
        segment stay valid until they die."""
        seg = self._segments.pop(role, None)
        if seg is None:
            return
        self._by_name.pop(seg.name, None)
        seg.unlink()

    def close(self) -> None:
        """Unlink every owned segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        unguard(self)
        for seg in self._segments.values():
            seg.unlink()
        self._segments.clear()
        self._by_name.clear()

    def __del__(self):
        if not getattr(self, "_closed", True):
            self.close()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-process attach cache: segment name -> SharedMemory, least
#: recently used first.
_ATTACHED: dict = {}

#: Most mappings a pool worker keeps between tasks.  Every compiled
#: dispatch stages into roles of its own and pool workers are never told
#: when one retires, so without a bound each retired dispatch would
#: strand one mapping (two fds) per staged array in every worker.
_ATTACH_LIMIT = 64


def _attach(name: str) -> shared_memory.SharedMemory:
    shm = _ATTACHED.pop(name, None)
    if shm is None:
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
        arr = spec.view(_attach(spec.segment).buf)
        arrays[name] = arr[a:b] if spec.sliced else arr
    try:
        return fn(arrays, consts, a, b, slab)
    finally:
        # Task views die with this frame, so the least recently used
        # mappings beyond the bound can be closed here — never mid-task.
        while len(_ATTACHED) > max(_ATTACH_LIMIT, len(specs)):
            _detach(next(iter(_ATTACHED)))

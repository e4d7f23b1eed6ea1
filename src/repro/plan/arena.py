"""Workspace arena: the plan-owned buffer pool.

Every temporary a planned tier needs — result vectors, per-slab scratch
blocks, RNG state snapshots — is reserved here **at plan-compile time**
and handed back as the same NumPy array on every subsequent lookup.
The hot path then never allocates: kernels write through ``out=`` into
arena views, exactly as the paper's fused kernels write through their
hoisted scratch blocks (Sec. IV-A3, Listing 3).

Reservations made through the arena are the sanctioned allocation
pattern in hot tiers: rule R001 of ``python -m repro lint`` recognises
``arena.reserve(...)`` / ``arena.reserve_like(...)`` receivers and does
not require a ``# repro-lint: disable=`` comment for them.

After :meth:`freeze`, reserving a *new* name raises — a planner that
accidentally defers a reservation to the hot path fails loudly instead
of silently allocating per call.  Re-reserving an existing name with
the same shape and dtype stays legal (it returns the pooled buffer),
which is what lets a plan re-compile against a same-shape payload
without growing.

On an out-of-process executor (``process``/``daemon``) every buffer is
carved out of the executor's shared-memory segments (64-byte aligned,
small ones packed into :data:`SHM_CHUNK_BYTES` chunks), so the plan's
compiled dispatches hand workers ``(segment, offset)`` references and a
warm run copies nothing in or out.  In process the buffers are plain
NumPy arrays.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..config import DTYPE
from ..errors import ConfigurationError

#: Shared-memory chunk a workspace arena packs its buffers into; a
#: larger buffer gets a segment of its own.  Untouched tail pages of a
#: chunk cost no memory.
SHM_CHUNK_BYTES = 1 << 20

#: Buffer alignment inside a chunk: one cache line, so buffers written
#: by different workers never share one.
_ALIGN = 64

#: Sequence for the arenas' shared-memory role prefixes.
_SHM_SEQ = itertools.count(1)


class WorkspaceArena:
    """Named, dtype-checked pool of preallocated NumPy buffers;
    ``executor``, when out of process, puts them in its shared
    segments."""

    def __init__(self, tag: str = "plan", executor=None):
        self.tag = tag
        self._buffers: dict = {}      # name -> ndarray
        self._dispatches: list = []   # compiled dispatches (see adopt)
        self._frozen = False
        self._shm = executor.shm_arena() if executor is not None else None
        self._roles: list = []        # shared-memory roles (see close)
        self._chunk = None            # (segment, bytes used)

    # -- reservation (plan-compile time) -------------------------------
    def reserve(self, name: str, shape, dtype=DTYPE,
                fill: float | None = None) -> np.ndarray:
        """The buffer named ``name``, allocated on first reservation.

        A repeated reservation must match the pooled buffer's shape and
        dtype exactly — a shape drift between compile passes is a plan
        bug, not a resize request.  ``fill`` initialises the buffer on
        first allocation only (reuse keeps the previous contents: the
        whole point of the arena).
        """
        shape = tuple(int(s) for s in (shape if isinstance(shape, (tuple, list))
                                       else (shape,)))
        dtype = np.dtype(dtype)
        buf = self._buffers.get(name)
        if buf is not None:
            if buf.shape != shape or buf.dtype != dtype:
                raise ConfigurationError(
                    f"arena {self.tag!r}: buffer {name!r} already reserved "
                    f"as {buf.shape}/{buf.dtype}, re-requested as "
                    f"{shape}/{dtype}")
            return buf
        if self._frozen:
            raise ConfigurationError(
                f"arena {self.tag!r} is frozen: reserving new buffer "
                f"{name!r} on the hot path is exactly the per-call "
                f"allocation plans exist to remove")
        buf = (np.empty(shape, dtype=dtype) if self._shm is None
               else self._shared(shape, dtype))
        if fill is not None:
            buf.fill(fill)
        self._buffers[name] = buf
        return buf

    def _shared(self, shape: tuple, dtype: np.dtype) -> np.ndarray:
        """A fresh buffer in the executor's shared segments: packed into
        the current chunk when it fits, else into a new segment."""
        nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
        seg, used = self._chunk or (None, 0)
        if seg is None or used + nbytes > seg.size:
            role = f"ws{next(_SHM_SEQ)}"
            self._roles.append(role)
            seg = self._shm.segment(role, max(nbytes, SHM_CHUNK_BYTES))
            used = 0
            if nbytes > SHM_CHUNK_BYTES:      # its own segment
                return seg.view(shape, dtype)
        self._chunk = (seg, -(-(used + nbytes) // _ALIGN) * _ALIGN)
        return seg.view(shape, dtype, used)

    @property
    def shared(self) -> bool:
        """True when buffers live in an out-of-process executor's
        shared segments."""
        return self._shm is not None

    def reserve_like(self, name: str, array: np.ndarray,
                     fill: float | None = None) -> np.ndarray:
        """Reserve a buffer with ``array``'s shape and dtype."""
        array = np.asarray(array)
        return self.reserve(name, array.shape, array.dtype, fill=fill)

    def scoped(self, suffix):
        """:meth:`reserve` with ``suffix`` appended to every name: what
        a planner hands a workspace builder it calls once per slab."""
        return lambda name, *spec, **kw: self.reserve(f"{name}{suffix}",
                                                      *spec, **kw)

    def adopt(self, dispatch):
        """Take ownership of a compiled slab dispatch built over this
        arena's buffers and return it.  A planner hands every
        :class:`~repro.parallel.slab.CompiledDispatch` it compiles to
        its arena, so whoever made the arena — an
        :class:`~.plan.ExecutionPlan`, a one-shot — retires exactly the
        dispatches its own compile created through :meth:`close`,
        whatever else is live on a shared executor."""
        self._dispatches.append(dispatch)
        return dispatch

    # -- lookup (hot path) ---------------------------------------------
    def get(self, name: str) -> np.ndarray:
        try:
            return self._buffers[name]
        except KeyError:
            raise ConfigurationError(
                f"arena {self.tag!r} has no buffer {name!r}; reserved: "
                f"{sorted(self._buffers)}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._buffers

    # -- lifecycle ------------------------------------------------------
    def freeze(self) -> "WorkspaceArena":
        """Seal the reservation phase; returns self for chaining."""
        self._frozen = True
        return self

    def close(self) -> None:
        """Retire the adopted dispatches (daemon unpin + shared-segment
        release) and unlink the arena's own segments; idempotent.  The
        buffers stay valid — a one-shot's result, or a plan's read after
        its executor closed, outlives its arena: a shared buffer keeps
        its mapping alive for as long as any view of it does."""
        for dispatch in self._dispatches:
            dispatch.close()
        for role in self._roles:
            self._shm.release(role)

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def names(self) -> tuple:
        return tuple(sorted(self._buffers))

    @property
    def nbytes(self) -> int:
        """Total bytes pinned by the arena."""
        return sum(b.nbytes for b in self._buffers.values())

    def describe(self) -> str:
        rows = [f"  {name}: {b.shape} {b.dtype} ({b.nbytes} B)"
                for name, b in sorted(self._buffers.items())]
        head = (f"WorkspaceArena {self.tag!r} — {len(self._buffers)} "
                f"buffers, {self.nbytes} B"
                f"{' (frozen)' if self._frozen else ''}")
        return "\n".join([head] + rows)

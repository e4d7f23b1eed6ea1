"""Fixed-slot shared-memory rings: the daemon's dispatch fabric.

A :class:`Ring` is a single-producer / single-consumer queue of
fixed-size slab descriptors living in one
:mod:`multiprocessing.shared_memory` segment.  The standing worker
daemon (:mod:`.daemon`) gives every worker a *submit* ring
(parent → worker) and an *ack* ring (worker → parent); in steady state
a ``map_shm`` dispatch is then nothing but a few 24-byte descriptor
writes and the matching ack reads — no pickling, no
``multiprocessing.Queue`` hop, no lock.  Payload data never travels
through the ring: arrays are already resident in the
:class:`~.shm.ShmArena` segments, so a descriptor only names
``(call_seq, plan_id, slab_index, arg)``.

Memory model
------------
The layout is the classic seqlock-flavoured SPSC ring:

* a 64-byte header carries magic, ABI version, slot count/size and the
  monotonically increasing ``head`` (written only by the producer) and
  ``tail`` (written only by the consumer);
* every slot carries its own ``seq`` word.  The producer writes the
  payload first and *publishes* it by storing ``seq = ticket + 1``; the
  consumer spins until the slot's ``seq`` matches the ticket it expects
  before reading, so a torn or in-flight payload is never observed.

With one writer per index and publish-after-write ordering this is
correct on total-store-order hardware (x86); the CPython interpreter
inserts far coarser barriers than the algorithm needs.  A full ring
**blocks the producer** (bounded backpressure) — slots are never
overwritten — and both ends degrade from spinning to short sleeps so an
idle daemon costs no meaningful CPU.

Crash hygiene
-------------
Segments are unlinked by whoever created them; to keep crashed runs
from stranding ``/dev/shm``, creators register with the module's exit
guard (:func:`guard_unlink` / :func:`unguard`), an ``atexit``-backed
registry also used by :class:`~.shm.ShmArena`.
:func:`install_signal_guards` converts ``SIGTERM``/``SIGINT`` into
``SystemExit`` so those guards also run when a daemon or worker is
killed politely, and :func:`reap_dead_owners` reclaims what an owner
killed without a guard left behind.
"""

from __future__ import annotations

import atexit
import os
import re
import signal
import struct
import time
from multiprocessing import shared_memory

from ..errors import ConfigurationError, DaemonError, RingABIError

#: Ring layout version.  Bump on any change to the header or slot
#: structs *or their semantics*; :meth:`Ring.attach` refuses a
#: mismatched segment with :class:`~repro.errors.RingABIError` instead
#: of misreading it.  v2: the descriptor ``arg`` word carries the
#: pinned plan's output-set id (:func:`repro.results.output_set_id`;
#: 0 for legacy single-output plans) so workers verify the dispatch's
#: multi-output schema before executing.
ABI_VERSION = 2

#: ``"RPRG"`` little-endian — identifies a segment as a repro ring.
MAGIC = 0x47525052

# Header: magic, abi, slots, slot payload size, head, tail, then the
# consumer's "door" word (parked flag) in the reserved pad.
_HEADER = struct.Struct("<IIIIQQ")
_HEADER_BYTES = 64
_HEAD_OFF = 16
_TAIL_OFF = 24
_DOOR_OFF = 32
_WORD = struct.Struct("<Q")

#: Descriptor payload: ``(call_seq, plan_id, slab_index, arg)``.
#: ``arg`` is the plan's output-set id on the submit rings (schema
#: check) and 0 on the completion rings.
_PAYLOAD = struct.Struct("<QIIQ")
_SLOT_BYTES = 8 + _PAYLOAD.size          # per-slot seq word + payload

#: One entry per ABI revision, newest last.  R010 (ring-abi-manifest)
#: cross-checks the current entry against the live struct literals
#: above: editing a layout constant without bumping ``ABI_VERSION``
#: and appending an entry — or appending without bumping — is a lint
#: failure, so a forgotten bump can never ship.  ``arg`` documents the
#: descriptor arg-word semantics for the revision.
_ABI_MANIFEST = {
    1: {
        "header": "<IIIIQQ",
        "header_bytes": 64,
        "head_off": 16,
        "tail_off": 24,
        "door_off": 32,
        "payload": "<QIIQ",
        "arg": "unused (zero)",
    },
    2: {
        "header": "<IIIIQQ",
        "header_bytes": 64,
        "head_off": 16,
        "tail_off": 24,
        "door_off": 32,
        "payload": "<QIIQ",
        "arg": "output_set_id of the pinned plan on submit rings "
               "(0 = legacy single-output), 0 on completion rings",
    },
}

#: Producer/consumer backoff ladder: spin this many polls hot, then
#: yield the CPU per poll, then sleep.  The hot window is short on
#: purpose — a ring poll is pure memory (~2 µs) but burning hundreds
#: of them steals the timeslice the *other* end needs on a host with
#: fewer cores than processes.  ``sched_yield`` is the tier that
#: matters under oversubscription: it is the cheapest syscall
#: available (~20 µs on the sandboxed kernels this repo measures on,
#: where most syscalls cost 30–40 µs) and cedes the CPU *immediately*
#: to whichever process holds the work, where a timer sleep would pay
#: the kernel's wakeup granularity (~1 ms here) per wait.
_SPINS = 16
_YIELDS = 5000
#: Deep-idle sleep once yielding gives up: the waiting end costs ~1 k
#: syscalls/s, and the first descriptor after an idle spell pays at
#: most one sleep quantum of latency.
_IDLE_SLEEP = 1e-3


def _backoff(spins: int) -> None:
    """One step of the spin → yield → sleep ladder (call after the
    first ``_SPINS`` hot polls missed)."""
    if spins <= _YIELDS:
        os.sched_yield()
    else:
        time.sleep(_IDLE_SLEEP)


class Ring:
    """One SPSC descriptor ring over a named shared-memory segment.

    Exactly one process calls :meth:`push` and exactly one calls
    :meth:`try_pop`/:meth:`pop` — the daemon enforces this by giving
    each worker its own pair.  ``Ring.create`` allocates and owns the
    segment (close unlinks); ``Ring.attach`` maps an existing one and
    validates its header.
    """

    def __init__(self, shm: shared_memory.SharedMemory, slots: int,
                 owner: bool):
        self._shm = shm
        self.slots = slots
        self.owner = owner
        self._buf = shm.buf
        self._closed = False

    # -- construction --------------------------------------------------
    @classmethod
    def create(cls, name: str, slots: int = 256) -> "Ring":
        if slots < 2 or slots & (slots - 1):
            raise ConfigurationError(
                f"ring slots must be a power of two >= 2, got {slots}")
        size = _HEADER_BYTES + slots * _SLOT_BYTES
        shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        _HEADER.pack_into(shm.buf, 0, MAGIC, ABI_VERSION, slots,
                          _PAYLOAD.size, 0, 0)
        # Slot seq words start at 0; ticket t publishes as t + 1, so a
        # zero seq is never a published value.
        for i in range(slots):
            _WORD.pack_into(shm.buf, _HEADER_BYTES + i * _SLOT_BYTES, 0)
        ring = cls(shm, slots, owner=True)
        guard_unlink(ring)
        return ring

    @classmethod
    def attach(cls, name: str) -> "Ring":
        """Map an existing ring, refusing foreign or stale layouts."""
        from .shm import _untracked_attach
        try:
            shm = _untracked_attach(name)
        except FileNotFoundError:
            raise DaemonError(
                f"ring segment {name!r} does not exist; the daemon that "
                f"created it is gone or was never started") from None
        magic, abi, slots, payload, _, _ = _HEADER.unpack_from(shm.buf, 0)
        if magic != MAGIC:
            shm.close()
            raise RingABIError(
                f"segment {name!r} is not a repro ring (bad magic "
                f"{magic:#x})")
        if abi != ABI_VERSION or payload != _PAYLOAD.size:
            shm.close()
            raise RingABIError(
                f"ring {name!r} speaks ABI v{abi} (payload {payload} B) "
                f"but this client is v{ABI_VERSION} (payload "
                f"{_PAYLOAD.size} B); restart the daemon and client from "
                f"the same build")
        return cls(shm, slots, owner=False)

    # -- header words --------------------------------------------------
    @property
    def name(self) -> str:
        return self._shm.name

    def _load(self, off: int) -> int:
        return _WORD.unpack_from(self._buf, off)[0]

    def _store(self, off: int, value: int) -> None:
        _WORD.pack_into(self._buf, off, value)

    @property
    def head(self) -> int:
        return self._load(_HEAD_OFF)

    @property
    def tail(self) -> int:
        return self._load(_TAIL_OFF)

    def __len__(self) -> int:
        return max(0, self.head - self.tail)

    @property
    def door(self) -> int:
        """The consumer's parked flag: non-zero means the consumer is
        blocked on its doorbell and wants a kick after the next push.
        A producer that reads 0 skips the kick syscall entirely — the
        optimization that keeps steady-state dispatch pipe-free."""
        return self._load(_DOOR_OFF)

    def door_set(self, value: int) -> None:
        """Consumer-side: raise before parking (then drain stale kicks
        and re-check the ring — the order that bounds the classic
        store/load race by the park timeout), clear on wake."""
        self._store(_DOOR_OFF, value)

    @property
    def free(self) -> int:
        return self.slots - len(self)

    # -- producer side -------------------------------------------------
    def try_push(self, call_seq: int, plan_id: int, slab: int,
                 arg: int = 0) -> bool:
        """Publish one descriptor; ``False`` when the ring is full
        (bounded backpressure — a slot is never overwritten)."""
        if self._closed:
            raise DaemonError(f"ring {self.name!r} is closed")
        head = self.head
        if head - self.tail >= self.slots:
            return False
        off = _HEADER_BYTES + (head % self.slots) * _SLOT_BYTES
        _PAYLOAD.pack_into(self._buf, off + 8, call_seq, plan_id, slab, arg)
        # Publish: the consumer will not read the payload until the
        # slot's seq equals ticket + 1, written only now.
        _WORD.pack_into(self._buf, off, head + 1)
        self._store(_HEAD_OFF, head + 1)
        return True

    def push(self, call_seq: int, plan_id: int, slab: int, arg: int = 0,
             *, timeout: float | None = None, liveness=None) -> None:
        """Blocking :meth:`try_push` with spin-then-sleep backoff.

        ``liveness``, when given, is polled during the wait (the daemon
        passes its worker-alive check) so a dead consumer raises
        :class:`~repro.errors.DaemonError` instead of hanging forever.
        """
        spins = 0
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.try_push(call_seq, plan_id, slab, arg):
            spins += 1
            if spins > _SPINS:
                if liveness is not None:
                    liveness()
                if deadline is not None and time.monotonic() > deadline:
                    raise DaemonError(
                        f"ring {self.name!r} stayed full for {timeout}s "
                        f"({self.slots} slots); consumer is not draining")
                _backoff(spins)

    # -- consumer side -------------------------------------------------
    def try_pop(self):
        """One descriptor ``(call_seq, plan_id, slab, arg)`` or ``None``
        when the ring is empty."""
        if self._closed:
            raise DaemonError(f"ring {self.name!r} is closed")
        tail = self.tail
        if tail >= self.head:
            return None
        off = _HEADER_BYTES + (tail % self.slots) * _SLOT_BYTES
        # Seqlock guard: the producer bumps head before we might observe
        # the slot, but publishes the slot seq only after the payload
        # write completes — spin out the (tiny) window.
        while self._load(off) != tail + 1:
            pass
        item = _PAYLOAD.unpack_from(self._buf, off + 8)
        self._store(_TAIL_OFF, tail + 1)
        return item

    def pop(self, *, timeout: float | None = None, liveness=None):
        """Blocking :meth:`try_pop` with the producer-side backoff."""
        spins = 0
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            item = self.try_pop()
            if item is not None:
                return item
            spins += 1
            if spins > _SPINS:
                if liveness is not None:
                    liveness()
                if deadline is not None and time.monotonic() > deadline:
                    raise DaemonError(
                        f"ring {self.name!r} produced nothing for "
                        f"{timeout}s")
                _backoff(spins)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Unmap (and, for the creator, unlink) the segment."""
        if self._closed:
            return
        self._closed = True
        unguard(self)
        self._buf = None
        self._shm.close()
        if self.owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "Ring":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        if not getattr(self, "_closed", True):
            self.close()


# ----------------------------------------------------------------------
# Crash-hygiene guards
# ----------------------------------------------------------------------

#: Objects with a ``close()`` that unlinks shared state, flushed at
#: interpreter exit so a crashed (but cleanly exiting) run strands
#: nothing in ``/dev/shm``.  Weak references: the guard must not keep
#: an object alive past its last real reference (objects collected
#: earlier clean up through their own finalizers).
_GUARDED: dict = {}


def guard_unlink(obj) -> None:
    """Register ``obj.close()`` to run at interpreter exit (idempotent
    with :func:`unguard`; ``close`` itself must tolerate being called
    twice, which every arena/ring here does)."""
    import weakref
    _GUARDED[id(obj)] = weakref.ref(obj)


def unguard(obj) -> None:
    _GUARDED.pop(id(obj), None)


@atexit.register
def _flush_guards() -> None:
    for ref in list(_GUARDED.values()):
        obj = ref()
        if obj is None:
            continue
        try:
            obj.close()
        except Exception:
            pass
    _GUARDED.clear()


_SIGNAL_GUARDS_INSTALLED = False


def install_signal_guards() -> None:
    """Convert ``SIGTERM``/``SIGINT`` into ``SystemExit`` so the atexit
    unlink guards run when a daemon process is killed politely.

    Only replaces handlers still at their defaults — an application
    that installed its own handlers keeps them.  ``SIGKILL`` cannot be
    guarded; a kill -9'd daemon leaves segments for the *parent's*
    guards (or :func:`reap_dead_owners` in the next owner) to sweep.
    """
    global _SIGNAL_GUARDS_INSTALLED
    if _SIGNAL_GUARDS_INSTALLED:
        return
    _SIGNAL_GUARDS_INSTALLED = True
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            if signal.getsignal(sig) in (signal.SIG_DFL, signal.default_int_handler):
                signal.signal(sig, _exit_on_signal)
        except (ValueError, OSError):      # non-main thread / platform
            pass


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


#: Owner-named segments: ``repro<pid>x…`` (arenas) and
#: ``reprod<pid>x…`` (daemon rings).
_OWNED_NAME = re.compile(r"reprod?(\d+)x")

_REAPED = False


def reap_dead_owners() -> None:
    """Unlink every owner-named segment whose owner pid is dead.

    Runs once per process, when it starts its first
    :class:`~.shm.ShmArena` or :class:`~.daemon.SlabDaemon`.  An owner
    killed with no exit guard (``SIGKILL`` of its process group, the
    OOM killer) together with its resource tracker leaves its segments
    linked; the next owner to start removes them.  A pid that
    ``os.kill(pid, 0)`` cannot signal (``PermissionError``) counts as
    alive, and names without the owner prefix are never touched.
    Assumes one pid namespace per ``/dev/shm``: a pid read from a name
    is checked against this process's namespace.
    """
    global _REAPED
    if _REAPED:
        return
    _REAPED = True
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return
    dead: dict = {}
    for name in names:
        match = _OWNED_NAME.match(name)
        if match is None:
            continue
        pid = int(match.group(1))
        if pid not in dead:
            try:
                os.kill(pid, 0)
                dead[pid] = False
            except ProcessLookupError:
                dead[pid] = True
            except (OSError, OverflowError):   # PermissionError: alive
                dead[pid] = False
        if dead[pid]:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass

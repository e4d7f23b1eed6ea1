"""Standing worker daemon: zero-pickle steady-state slab dispatch.

The ``process`` backend pays pickling plus two executor-queue hops for
every slab of every dispatch run; at high worker counts that fixed
cost is what caps the measured scaling curves.  This module promotes
the pool to a **daemon**: workers start once, *pin* each compiled
dispatch once (the only pickling, over a per-worker control pipe, at
setup time: the pin maps the dispatch's shared-memory segments, the
matching unpin closes them again), and
thereafter receive work as 24-byte slab descriptors over a
:class:`~.ring.Ring` pair — submit ring in, ack ring out.  A
steady-state dispatch therefore moves no Python objects at all:
payloads are already arena-resident, descriptors are fixed-size struct
writes, and acks are the same in reverse.

Topology
--------
::

    parent (SlabExecutor "daemon")          worker i  (one process each)
    ──────────────────────────────          ───────────────────────────
    pin: pipe.send((fn, specs, …)) ───────▶ build per-slab views once
    dispatch: submit_ring[i].push ────────▶ run slab fn on pinned views
              ack_ring[i].pop    ◀──────── push (call_seq, plan, slab)

The parent is the process that prices: its executor forks the fleet
and stops it, and only it holds the rings, doorbells and control
pipes.  Nothing attaches to a fleet from outside.

Slabs are assigned **statically round-robin** (slab ``j`` belongs to
worker ``j % n_workers``): assignment is then a pure function of the
plan, never of worker timing, which preserves the slab engine's
bit-identical determinism contract (streams are per slab, so placement
cannot change results — only balance).

Idle workers **park on a doorbell** rather than spin: each direction of
each ring pairs with a one-byte pipe (payload-free; descriptors travel
only through the rings) whose sole job is to make the waiting end
blocked-not-runnable.  Publish-before-kick on the sender plus
drain-stale-kicks-then-recheck before every block makes the protocol
lost-wakeup-free, and because a parked process costs the scheduler
nothing, dispatch latency stays in the tens of µs even when workers
outnumber cores — the regime where spin/sleep ladders collapse into
millisecond timeslice roulette.

Failure handling
----------------
Every blocking wait polls worker liveness, so a crashed worker raises
:class:`~repro.errors.DaemonError` instead of hanging; slab-body
exceptions travel back over the control pipe (ack status flags the
parent to read it).  Ring and arena segments register exit guards
(:mod:`.ring`), which unlink them when the owner exits normally, raises
or is stopped by ``SIGTERM``/``SIGINT``.  ``SIGKILL`` runs no guard.
A SIGKILLed owner's workers do not stay behind: a worker closes every
parent-side pipe end it inherited, so the owner's death reaches it as
EOF, and each park timeout checks that the owner is still its parent.
Its segments are unlinked by CPython's resource tracker once every
pipe end to the tracker has closed; if the tracker died too (a SIGKILL
of the process group), the next process that starts a daemon or arena
reclaims them (:func:`~.ring.reap_dead_owners`).
"""

from __future__ import annotations

import os
import time

from ..errors import ConfigurationError, DaemonError, DaemonNotRunningError
from ..results import output_set_id
from .ring import (ABI_VERSION, Ring, guard_unlink, install_signal_guards,
                   reap_dead_owners, unguard)

#: Submit/ack ring capacity per worker.  Descriptor pushes interleave
#: with ack drains, so this bounds in-flight work per worker without
#: ever deadlocking (see :meth:`SlabDaemon.dispatch`).
RING_SLOTS = 256

#: Ack status codes (the descriptor ``arg`` field on the ack ring).
_ACK_OK = 0
_ACK_RESULT = 1      # fn returned non-None: value follows on the pipe
_ACK_ERROR = 2       # slab raised: traceback follows on the pipe

#: Control-channel round-trip timeout (pin/unpin/stop acks).  Generous:
#: a pin may attach many segments on a loaded machine.
_CTL_TIMEOUT = 60.0

#: Idle ladder: hot-poll the ring this many times (pure memory, ~2 µs
#: each), then enter the cooperative yield phase, and only after
#: ``_PARK_AFTER`` total misses park on the doorbell.  The yield phase
#: is the steady-state tier: ``sched_yield`` is the cheapest syscall on
#: the sandboxed kernels this repo targets (~20 µs, vs 30–40 µs for a
#: pipe poll/write), so a waiting end re-checks the ring every ~20 µs
#: while ceding its CPU to whoever holds the work — no pipe traffic at
#: all.  Parking (blocked, not runnable) is for deep idle: between
#: dispatch sessions an idle daemon costs ~2 syscalls/s per worker.
_SPIN_POLLS = 8
_PARK_AFTER = 2000

#: How often the yield phase glances at the control pipe (every Nth
#: yield): a pin/stop that lands mid-yield-phase is noticed within
#: ~N × 20 µs without paying the 30 µs poll syscall per miss.
_CTL_EVERY = 64

#: Parked-worker wait quantum.  Every real wake is a doorbell byte;
#: the timeout bounds the theoretical store/load race between a
#: producer's door check and this consumer's park, and on each timeout
#: a parked worker compares ``os.getppid()`` with its owner's pid and
#: exits if the owner is gone, SIGKILLed owners included.  (Its segments
#: are reaped by the next owner to start: see the module docstring.)
_PARK_QUANTUM = 0.5

#: Dispatcher-side ack wait quantum.  Short so worker death during a
#: dispatch is noticed promptly even though the real wake is the ack
#: doorbell.
_ACK_WAIT = 0.05

_DAEMON_SEQ = 0


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _worker_main(worker_id: int, submit_name: str, ack_name: str,
                 ctl, kick, ack_kick, owner: int, inherited) -> None:
    """Worker loop: pin plans from the control pipe, execute slab
    descriptors from the submit ring, ack on the ack ring.

    ``kick``/``ack_kick`` are the **doorbells** — one-byte pipe writes
    that pair with the rings' lock-free descriptors.  An idle worker
    blocks in :func:`multiprocessing.connection.wait` (not runnable, so
    it costs nothing and competes with nobody — the property that keeps
    round-trip latency low when workers outnumber cores), and the
    dispatcher rings its doorbell after publishing descriptors; the
    worker rings ``ack_kick`` after publishing acks.  Descriptors and
    acks still travel *only* through the rings — a doorbell byte
    carries no payload.  The wake protocol is lost-wakeup-free because
    both sides publish to the ring **before** kicking and drain stale
    kicks **before** re-checking the ring ahead of a block.

    Runs until a ``stop`` control message, or until the owner vanishes:
    ``inherited`` are the parent-side pipe ends a forked worker holds
    (its own and every earlier sibling's), closed first so the owner's
    death is EOF here; ``owner`` is the pid the worker was forked under
    (``0``: read it from ``os.getppid()``), re-checked on every park
    timeout.  Module-level so the ``spawn`` start method can import it.
    """
    for conn in inherited:
        conn.close()
    owner = owner or os.getppid()
    install_signal_guards()
    from .shm import _attach, _detach

    submit = Ring.attach(submit_name)
    ack = Ring.attach(ack_name)
    plans: dict = {}                 # plan_id -> [(fn, arrays, consts), ...]
    plan_outs: dict = {}             # plan_id -> pinned output-set id
    plan_segs: dict = {}             # plan_id -> segment names it maps

    def handle_ctl() -> bool:
        """One control message; returns False on stop."""
        msg = ctl.recv()
        op = msg[0]
        if op == "pin":
            _, plan_id, out_id, fn, specs, tasks = msg
            views = {name: spec.view(_attach(spec.segment).buf)
                     for name, spec in specs.items()}
            pinned = []
            for consts, a, b, slab in tasks:
                arrays = {name: (views[name][a:b] if spec.sliced else
                                 views[name])
                          for name, spec in specs.items()}
                pinned.append((fn, arrays, consts, a, b, slab))
            plans[plan_id] = pinned
            plan_outs[plan_id] = out_id
            plan_segs[plan_id] = {spec.segment for spec in specs.values()}
            ctl.send(("ok", plan_id))
        elif op == "unpin":
            # Drop the plan's views first, then close the mappings no
            # other pinned plan still reads: a retired dispatch's
            # segments are unlinked by the parent, and a mapping kept
            # here would hold its memory and two fds for good.
            plans.pop(msg[1], None)
            plan_outs.pop(msg[1], None)
            stale = plan_segs.pop(msg[1], set())
            for segment in stale.difference(*plan_segs.values()):
                _detach(segment)
            ctl.send(("ok", msg[1]))
        elif op == "ping":
            ctl.send(("pong", worker_id, len(plans)))
        elif op == "stop":
            ctl.send(("ok", "stop"))
            return False
        else:
            ctl.send(("error", f"unknown control op {op!r}"))
        return True

    def drain_kicks() -> None:
        while kick.poll(0):
            kick.recv_bytes()

    def execute(item) -> None:
        """One descriptor: run the pinned slab body, publish the ack,
        ring the ack doorbell."""
        call_seq, plan_id, slab, out_id = item
        tasks = plans.get(plan_id)
        if tasks is None:
            ctl.send(("taskerror", call_seq, slab,
                      f"worker {worker_id}: plan {plan_id} is not "
                      f"pinned"))
            ack.push(call_seq, plan_id, slab, _ACK_ERROR)
            if ack.door:
                ack_kick.send_bytes(b"k")
            return
        if out_id != plan_outs.get(plan_id, 0):
            # Output-schema cross-check: the descriptor says the
            # dispatcher believes plan_id produces one output set, the
            # pin said another.  Refusing here turns a dispatcher/
            # worker disagreement (e.g. mismatched builds sharing a
            # daemon) into a clean error instead of silently
            # misattributed result buffers.
            ctl.send(("taskerror", call_seq, slab,
                      f"worker {worker_id}: plan {plan_id} was pinned "
                      f"with output-set id {plan_outs.get(plan_id, 0)} "
                      f"but the descriptor carries {out_id}; the "
                      f"dispatcher and worker disagree on the plan's "
                      f"multi-output schema"))
            ack.push(call_seq, plan_id, slab, _ACK_ERROR)
            if ack.door:
                ack_kick.send_bytes(b"k")
            return
        fn, arrays, consts, a, b, idx = _task_for(tasks, slab)
        try:
            result = fn(arrays, consts, a, b, idx)
        except BaseException:  # noqa: BLE001 — relayed whole
            import traceback
            ctl.send(("taskerror", call_seq, slab,
                      traceback.format_exc()))
            ack.push(call_seq, plan_id, slab, _ACK_ERROR)
            if ack.door:
                ack_kick.send_bytes(b"k")
            return
        if result is not None:
            # Rare path: value-returning slab bodies (e.g. moment
            # reductions) ship their result over the pipe.  The
            # registered kernel tiers all write through views and
            # return None, which keeps steady state pickle-free.
            ctl.send(("taskresult", call_seq, slab, result))
            ack.push(call_seq, plan_id, slab, _ACK_RESULT)
        else:
            ack.push(call_seq, plan_id, slab, _ACK_OK)
        # Ring the ack doorbell only when the dispatcher is parked —
        # the door check is a shared-memory read, so a yielding
        # dispatcher costs this path zero syscalls.
        if ack.door:
            ack_kick.send_bytes(b"k")

    try:
        running = True
        idle = 0
        while running:
            item = submit.try_pop()
            if item is not None:
                idle = 0
                execute(item)
                continue
            idle += 1
            if idle < _SPIN_POLLS:
                # Hot window: pure-memory polls, sub-µs pickup for a
                # descriptor landing mid-dispatch.
                continue
            if idle < _PARK_AFTER:
                # Cooperative phase — the steady-state tier: re-check
                # the ring every ~20 µs while ceding the CPU to the
                # producer (or to sibling workers) in between, and
                # glance at the control pipe occasionally so a pin or
                # stop lands promptly.  Control messages are only
                # consulted between tasks, so a pin never interleaves
                # a dispatch.
                if idle % _CTL_EVERY == 0 and ctl.poll(0):
                    running = handle_ctl()
                    idle = 0
                    continue
                os.sched_yield()
                continue
            # Deep idle: park on the doorbell (blocked, not runnable).
            # Raise the door first, drain stale kicks, then re-check
            # control and ring — producers publish before they read
            # the door, so this order makes a lost wakeup impossible
            # up to the store/load race the park quantum bounds.
            submit.door_set(1)
            drain_kicks()
            if ctl.poll(0):
                submit.door_set(0)
                running = handle_ctl()
                idle = 0
                continue
            if len(submit):
                submit.door_set(0)
                idle = 0
                continue
            woke = kick.poll(_PARK_QUANTUM)
            submit.door_set(0)
            if not woke and os.getppid() != owner:
                break                 # orphaned: the owner died unguarded
            # A doorbell byte means work (or control) is in flight:
            # restart the ladder hot.  A bare timeout re-parks at
            # once, so a deep-idle worker costs ~2 syscalls/s.
            idle = 0 if woke else _PARK_AFTER - 1
    except (EOFError, OSError, BrokenPipeError):
        pass                          # parent went away: exit quietly
    finally:
        submit.close()
        ack.close()


def _task_for(tasks, slab: int):
    """The pinned task whose global slab index is ``slab``."""
    for task in tasks:
        if task[5] == slab:
            return task
    raise DaemonError(f"slab {slab} is not pinned on this worker")


# ----------------------------------------------------------------------
# Owner side
# ----------------------------------------------------------------------

class SlabDaemon:
    """In-process owner of a standing worker fleet.

    Created (lazily) by ``SlabExecutor("daemon")``; ``start()`` forks
    the workers and builds the ring pairs, ``stop()`` retires them and
    unlinks every segment.  Control traffic (pin/unpin/ping/stop) runs
    over per-worker pipes; steady-state dispatch submits descriptors
    over one ring pair per worker and collects the acks.
    """

    def __init__(self, n_workers: int, mp_context: str | None = None,
                 ring_slots: int = RING_SLOTS):
        if n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        global _DAEMON_SEQ
        _DAEMON_SEQ += 1
        self.n_workers_requested = n_workers
        self._tag = f"reprod{os.getpid()}x{_DAEMON_SEQ}"
        self._ring_slots = ring_slots
        self._mp_context = mp_context
        self._submit: list = []       # Ring per worker
        self._ack: list = []          # Ring per worker
        self._call_seq = 0
        self._plan_seq = 0
        self._plans: dict = {}        # plan_id -> n_slabs
        self._plan_outs: dict = {}    # plan_id -> output-set id
        self._procs: list = []
        self._pipes: list = []
        self._side: list = []         # buffered taskresult/taskerror msgs
        self._kick_w: list = []       # submit doorbells (parent → worker)
        self._ack_kick_r = None       # ack doorbell (all workers → parent)
        self._started = False
        self._stopped = False

    @property
    def n_workers(self) -> int:
        return len(self._submit)

    def _worker_of(self, slab: int) -> int:
        return slab % self.n_workers

    # -- pin lifecycle -------------------------------------------------
    def pin(self, fn, specs: dict, consts_list, slabs,
            outputs=()) -> int:
        """Pin one dispatch on the standing workers (the setup-time
        pickle); returns the plan id used in steady-state descriptors.

        ``consts_list[i]`` are the merged constants of slab ``i``;
        ``slabs`` the ``(start, stop)`` plan.  Worker ``w`` receives
        only the tasks it will execute.  ``outputs`` is the dispatch's
        logical output-name tuple (empty for classic single-output
        plans); its :func:`~repro.results.output_set_id` is pinned on
        the workers and rides every descriptor's ``arg`` word, so a
        worker refuses a descriptor whose schema disagrees with the
        pin.
        """
        self._check_alive()
        self._plan_seq += 1
        plan_id = self._plan_seq
        out_id = output_set_id(outputs)
        for w in range(self.n_workers):
            tasks = [(consts_list[i], int(a), int(b), i)
                     for i, (a, b) in enumerate(slabs)
                     if self._worker_of(i) == w]
            try:
                reply = self._control(w, ("pin", plan_id, out_id, fn,
                                          specs, tasks))
            except Exception:
                self._rollback_pin(plan_id, w)
                raise
            if reply[0] != "ok":
                self._rollback_pin(plan_id, w)
                raise DaemonError(
                    f"worker {w} rejected pin of plan {plan_id}: {reply}")
        self._plans[plan_id] = len(slabs)
        self._plan_outs[plan_id] = out_id
        return plan_id

    def _rollback_pin(self, plan_id: int, upto: int) -> None:
        """Retire a half-applied pin: workers ``[0, upto)`` accepted it
        and would hold the plan's body/specs/consts forever if the
        failing pin escaped without this (best-effort, like unpin)."""
        for w in range(upto):
            try:
                self._control(w, ("unpin", plan_id))
            except (DaemonError, OSError, EOFError):
                pass

    def unpin(self, plan_id: int) -> None:
        """Retire a pinned plan (idempotent; tolerates a daemon that
        already stopped — eviction must never raise)."""
        if self._plans.pop(plan_id, None) is None:
            return
        self._plan_outs.pop(plan_id, None)
        for w in range(self.n_workers):
            try:
                self._control(w, ("unpin", plan_id))
            except (DaemonError, OSError, EOFError):
                pass

    # -- steady state --------------------------------------------------
    def dispatch(self, plan_id: int):
        """Run every slab of a pinned plan; returns per-slab results in
        slab order (``None`` for the view-writing kernels).

        The hot path: descriptor pushes and ack pops only.  Pushes
        interleave with opportunistic ack drains so a plan larger than
        the ring capacity cannot deadlock on mutual backpressure.
        """
        n_slabs = self._plans.get(plan_id)
        if n_slabs is None:
            raise DaemonError(f"plan {plan_id} is not pinned")
        # No liveness or doorbell syscalls here: ``is_alive`` is a
        # waitpid per worker (~180 µs on sandboxed kernels) and a
        # poll(0) is ~30 µs.  A dead worker is still caught — the drain
        # loop below re-checks liveness every ``_CTL_EVERY`` yields —
        # and stale ack-kicks (at most one per worker per park episode)
        # are drained inside :meth:`_await_acks` before parking.
        self._call_seq += 1
        call_seq = self._call_seq
        out_id = self._plan_outs.get(plan_id, 0)
        results = [None] * n_slabs
        pending = n_slabs
        expected = [0] * self.n_workers
        for i in range(n_slabs):
            w = self._worker_of(i)
            expected[w] += 1
            while not self._submit[w].try_push(call_seq, plan_id, i,
                                               out_id):
                pending -= self._drain(call_seq, plan_id, results,
                                       expected)
                self._check_alive()
        # Post-push kick: wakes exactly the workers whose door is up
        # (parked); workers mid-yield-phase see the descriptors within
        # ~20 µs without any pipe traffic.
        self._kick_flush(expected)
        spins = 0
        while pending > 0:
            drained = self._drain(call_seq, plan_id, results, expected)
            if drained:
                pending -= drained
                spins = 0
                continue
            spins += 1
            if spins < _SPIN_POLLS:
                continue
            if spins < _PARK_AFTER:
                # Slabs mid-compute: cede the CPU to them, re-check on
                # each pass, and glance at worker liveness only every
                # Nth yield (is_alive is a waitpid syscall per worker).
                if spins % _CTL_EVERY == 0:
                    self._check_alive()
                os.sched_yield()
                continue
            self._check_alive()
            self._await_acks(expected)
        return results

    def _drain(self, call_seq: int, plan_id: int, results, expected) -> int:
        """Pop every ready ack; folds pipe-borne results/errors in."""
        got = 0
        for w in range(self.n_workers):
            while expected[w] > 0:
                item = self._ack[w].try_pop()
                if item is None:
                    break
                seq, pid, slab, status = item
                if seq != call_seq or pid != plan_id:
                    raise DaemonError(
                        f"stale ack (call {seq}, plan {pid}) while "
                        f"collecting call {call_seq} of plan {plan_id}")
                expected[w] -= 1
                got += 1
                if status == _ACK_OK:
                    continue
                kind, rseq, rslab, payload = self._recv_pipe(w, "side")
                if status == _ACK_RESULT and kind == "taskresult":
                    results[slab] = payload
                else:
                    raise DaemonError(
                        f"slab {slab} of plan {plan_id} failed in "
                        f"worker {w}:\n{payload}")
        return got

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "SlabDaemon":
        if self._started:
            return self
        import multiprocessing
        from .slab import _default_mp_context
        reap_dead_owners()
        ctx = multiprocessing.get_context(
            self._mp_context or _default_mp_context())
        method = ctx.get_start_method()
        # A forkserver child's parent is the server, not this process.
        owner = 0 if method == "forkserver" else os.getpid()
        guard_unlink(self)
        # One ack doorbell shared by every worker: contentless one-byte
        # sends are atomic (<< PIPE_BUF), and a single read end lets
        # the dispatcher park on one plain blocking fd.
        ack_kick_r, ack_kick_w = ctx.Pipe(duplex=False)
        self._ack_kick_r = ack_kick_r
        for w in range(self.n_workers_requested):
            sub = Ring.create(f"{self._tag}s{w}", self._ring_slots)
            ak = Ring.create(f"{self._tag}a{w}", self._ring_slots)
            parent_conn, child_conn = ctx.Pipe()
            kick_r, kick_w = ctx.Pipe(duplex=False)
            # A forked worker inherits every parent-side end open now:
            # left open, a later sibling would hold an earlier worker's
            # control pipe and doorbell, so neither ever reaches EOF.
            inherited = ([ack_kick_r, parent_conn, kick_w, *self._pipes,
                          *self._kick_w] if method == "fork" else [])
            proc = ctx.Process(
                target=_worker_main, name=f"repro-daemon-{w}",
                args=(w, sub.name, ak.name, child_conn, kick_r,
                      ack_kick_w, owner, inherited), daemon=True)
            proc.start()
            child_conn.close()
            kick_r.close()
            self._submit.append(sub)
            self._ack.append(ak)
            self._pipes.append(parent_conn)
            self._kick_w.append(kick_w)
            self._side.append([])
            self._procs.append(proc)
        ack_kick_w.close()
        self._started = True
        self.ping()                    # fail fast if a worker died early
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the workers and unlink every ring segment (idempotent;
        also safe after a worker crash)."""
        if self._stopped:
            return
        self._stopped = True
        unguard(self)
        for w, proc in enumerate(self._procs):
            if proc.is_alive():
                try:
                    self._pipes[w].send(("stop",))
                    self._kick_w[w].send_bytes(b"k")   # wake if parked
                except (OSError, BrokenPipeError):
                    pass
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
        for ring in self._submit + self._ack:
            ring.close()
        doorbells = [self._ack_kick_r] if self._ack_kick_r else []
        for pipe in self._pipes + self._kick_w + doorbells:
            try:
                pipe.close()
            except OSError:
                pass
        self._plans.clear()
        self._plan_outs.clear()

    close = stop                      # guard_unlink protocol

    def __enter__(self) -> "SlabDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def __del__(self):
        if getattr(self, "_started", False) and not self._stopped:
            self.stop(timeout=1.0)

    # -- dispatcher plumbing -------------------------------------------
    def _check_alive(self) -> None:
        if not self._started or self._stopped:
            raise DaemonNotRunningError(
                "the slab daemon is not running (never started or "
                "already stopped)")
        for w, proc in enumerate(self._procs):
            if not proc.is_alive():
                raise DaemonError(
                    f"daemon worker {w} (pid {proc.pid}) died with exit "
                    f"code {proc.exitcode}; the daemon cannot serve "
                    f"dispatches — call stop() and restart")

    def _recv_pipe(self, worker: int, what: str):
        """One pipe message, with the control/side planes demuxed: a
        ``taskresult``/``taskerror`` that arrives while a control reply
        is awaited (or vice versa) is buffered, never dropped."""
        pipe = self._pipes[worker]
        side = self._side[worker]
        deadline = time.monotonic() + _CTL_TIMEOUT
        while True:
            if what == "side" and side:
                return side.pop(0)
            if pipe.poll(0 if side else 0.05):
                msg = pipe.recv()
                is_side = msg[0] in ("taskresult", "taskerror")
                if is_side == (what == "side"):
                    return msg
                if is_side:
                    side.append(msg)
                else:
                    raise DaemonError(
                        f"worker {worker} sent an unsolicited control "
                        f"reply {msg[0]!r}")
                continue
            self._check_alive()
            if time.monotonic() > deadline:
                raise DaemonError(
                    f"worker {worker} sent no {what} message within "
                    f"{_CTL_TIMEOUT}s")

    def _control(self, worker: int, msg: tuple):
        self._check_alive()
        self._pipes[worker].send(msg)
        # Wake a parked worker; one mid-yield-phase polls the control
        # pipe on its own every ``_CTL_EVERY`` yields.
        if self._submit[worker].door:
            try:
                self._kick_w[worker].send_bytes(b"k")
            except (OSError, BrokenPipeError):
                pass
        # A worker mid-slab answers control only between tasks, so the
        # wait is bounded by one slab's runtime.
        return self._recv_pipe(worker, "control")

    # -- doorbells -----------------------------------------------------
    def _kick_flush(self, expected) -> None:
        # Door check is a shared-memory read: only parked workers cost
        # a pipe write, so steady state (workers yielding) is pipe-free.
        for w in range(self.n_workers):
            if expected[w] > 0 and self._submit[w].door:
                self._kick_w[w].send_bytes(b"k")

    def _await_acks(self, expected) -> None:
        """Park on the shared ack doorbell until a worker rings it.

        Raises the door on every ack ring still owed (workers kick only
        when they see it up), drains stale bytes, re-checks the rings —
        acks publish *before* the door read on the worker side, so a
        non-empty ring here means work is ready and we return to the
        drain loop instead of blocking.  The wait quantum doubles as
        the worker-crash poll interval.
        """
        for w in range(self.n_workers):
            if expected[w] > 0:
                self._ack[w].door_set(1)
        try:
            while self._ack_kick_r.poll(0):     # stale bytes
                self._ack_kick_r.recv_bytes()
            for w in range(self.n_workers):
                if expected[w] > 0 and len(self._ack[w]):
                    return
            self._ack_kick_r.poll(_ACK_WAIT)
        finally:
            for w in range(self.n_workers):
                if expected[w] > 0:
                    self._ack[w].door_set(0)

    # -- introspection -------------------------------------------------
    def ping(self) -> list:
        """Control round-trip to every worker: ``(worker, pinned)``."""
        out = []
        for w in range(self.n_workers):
            reply = self._control(w, ("ping",))
            if reply[0] != "pong":
                raise DaemonError(f"worker {w} ping failed: {reply}")
            out.append((reply[1], reply[2]))
        return out

    def status(self) -> dict:
        alive = [p.is_alive() for p in self._procs]
        return {
            "tag": self._tag,
            "abi": ABI_VERSION,
            "n_workers": self.n_workers,
            "workers_alive": sum(alive),
            "worker_pids": [p.pid for p in self._procs],
            "plans_pinned": len(self._plans),
            # Per-pin detail an operator running the gateway needs: which
            # dispatch ids are resident, how many slabs each fans out to,
            # and the output-set CRC their descriptors will carry.
            "pinned": [
                {"plan_id": pid, "n_slabs": n,
                 "output_set_id": self._plan_outs.get(pid, 0)}
                for pid, n in sorted(self._plans.items())
            ],
            "ring_slots": self._ring_slots,
            "submit_rings": [r.name for r in self._submit],
            "ack_rings": [r.name for r in self._ack],
        }

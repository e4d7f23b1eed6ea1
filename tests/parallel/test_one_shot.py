"""One-shots (``impl.fn``, ``map_shm``) are compile -> run once ->
retire: they leave no live dispatch, daemon pin, shared segment or
worker mapping behind — also when the slab body raises — and they are
re-entrant on a shared executor."""

import os
import re
import sys
import threading

import numpy as np
import pytest

from repro import registry
from repro.config import SMOKE_SIZES
from repro.errors import DaemonError
from repro.kernels.black_scholes.parallel import compile_price_parallel
from repro.kernels.monte_carlo.parallel import compile_price_stream
from repro.parallel import SlabExecutor, shm
from repro.plan import one_shot
from repro.pricing.portfolio import random_batch

BACKENDS = ("serial", "thread", "process", "daemon")
SLAB_TIERS = sorted({(i.kernel, i.tier) for i in registry.impls()
                     if i.backend != "serial"})


def _scale(arrays, consts, a, b, slab):
    arrays["out"][:] = arrays["x"] * consts["k"]


def _boom(arrays, consts, a, b, slab):
    raise ZeroDivisionError(f"slab {slab}")


def _probe(arrays, consts, a, b, slab):
    """What this worker still holds: (mappings, open fds)."""
    return len(shm._ATTACHED), len(os.listdir("/proc/self/fd"))


#: Every segment the runtime creates is named ``repro<pid>x…`` (arenas)
#: or ``reprod<pid>x…`` (daemon rings), ``<pid>`` being its creator's.
_SEGMENT = re.compile(r"reprod?(\d+)x")


def _process_tree() -> set:
    """This process's pid and every descendant's."""
    children: dict = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    tree, todo = set(), [os.getpid()]
    while todo:
        pid = todo.pop()
        tree.add(pid)
        todo += children.get(pid, [])
    return tree


def _census() -> set:
    """The segments this test's process tree owns: a concurrent
    ``repro`` process elsewhere on the host cannot move it."""
    tree = _process_tree()
    return {name for name in os.listdir("/dev/shm")
            if (m := _SEGMENT.match(name)) and int(m.group(1)) in tree}


def _assert_nothing_left(ex, baseline: set) -> None:
    assert ex._live_dispatches == []
    if ex._arena is not None:
        assert ex._arena._segments == {}
    if ex._daemon is not None:
        assert ex._daemon.status()["plans_pinned"] == 0
        assert [pinned for _, pinned in ex._daemon.ping()] == \
            [0] * ex.n_workers
    assert _census() == baseline


class TestNothingLeftBehind:
    @pytest.fixture(scope="class", params=BACKENDS)
    def warm_ex(self, request):
        """One executor per backend, pool/daemon/arena already up, and
        the /dev/shm census with it idle."""
        x = np.arange(64, dtype=np.float64)
        with SlabExecutor(request.param, n_workers=2, slab_bytes=256) as ex:
            ex.map_shm(_scale, 64, bytes_per_item=16,
                       sliced={"x": x, "out": np.zeros(64)},
                       writes=("out",), consts={"k": 1.0})
            yield ex, _census()

    @pytest.mark.parametrize("kernel,tier", SLAB_TIERS)
    def test_every_slab_tier_fn_retires_what_it_compiled(self, warm_ex,
                                                         kernel, tier):
        ex, baseline = warm_ex
        payload = registry.workload(kernel).build(SMOKE_SIZES, seed=2012)
        registry.impl(kernel, tier, ex.backend).fn(payload, ex)
        _assert_nothing_left(ex, baseline)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_raising_slab_body_still_retires(self, backend):
        x = np.arange(64, dtype=np.float64)
        with SlabExecutor(backend, n_workers=2, slab_bytes=256) as ex:
            if ex.out_of_process:
                ex._get_arena()
            if backend == "daemon":
                ex._get_daemon()
            baseline = _census()
            with pytest.raises((ZeroDivisionError, DaemonError)):
                ex.map_shm(_boom, 64, bytes_per_item=16,
                           sliced={"x": x, "out": np.zeros(64)},
                           writes=("out",))
            _assert_nothing_left(ex, baseline)


class TestWorkersForgetRetiredDispatches:
    """A retired dispatch's segments are unlinked by the parent; the
    workers must drop their mappings (and the two fds each holds) too.
    At the parent commit 200 retire cycles of a two-array dispatch left
    402 mappings / ~830 fds in each daemon worker and 252 / 522 in each
    pool worker."""

    CYCLES = 200

    @staticmethod
    def _retire_cycle(ex, fn, **declaration):
        """One compile/run/close — what a one-shot, or a plan-cache
        eviction, does to the workers."""
        dispatch = ex.compile_shm(fn, 64, bytes_per_item=16, **declaration)
        try:
            return dispatch.run()
        finally:
            dispatch.close()

    def _worst_worker(self, ex) -> tuple:
        held = self._retire_cycle(ex, _probe, sliced={"x": np.zeros(64)})
        return max(m for m, _ in held), max(f for _, f in held)

    def _churn(self, ex) -> None:
        x = np.arange(64, dtype=np.float64)
        out = np.zeros(64)
        for _ in range(self.CYCLES):
            self._retire_cycle(ex, _scale, sliced={"x": x, "out": out},
                               writes=("out",), consts={"k": 2.0})
        assert np.array_equal(out, x * 2.0)

    def test_daemon_workers_unmap_on_unpin(self):
        with SlabExecutor("daemon", n_workers=2, slab_bytes=256) as ex:
            start = self._worst_worker(ex)
            self._churn(ex)
            assert self._worst_worker(ex) == start
            assert start[0] == 1          # just the probe's own array

    def test_pool_workers_bound_their_attach_cache(self):
        with SlabExecutor("process", n_workers=2, slab_bytes=256) as ex:
            _, start_fds = self._worst_worker(ex)
            self._churn(ex)
            mappings, fds = self._worst_worker(ex)
            # The probe runs before its own task's trim: limit + 1.
            assert mappings <= shm._ATTACH_LIMIT + 1
            assert fds <= start_fds + 2 * (shm._ATTACH_LIMIT + 1)


class TestReentrant:
    def test_concurrent_one_shots_on_the_default_executor(self):
        """8 threads x 20 one-shots share one threaded executor: every
        result is the serial answer and every dispatch is retired by
        the call that compiled it (a compile that found "its"
        dispatches by diffing the executor's live list would retire a
        neighbour's, or miss its own)."""
        batch = random_batch(2048, seed=7)
        rng = np.random.default_rng(7)
        S, X, T = (rng.uniform(80.0, 120.0, 8), rng.uniform(80.0, 120.0, 8),
                   rng.uniform(0.25, 2.0, 8))
        randoms = rng.standard_normal(2048)
        mc = (S, X, T, 0.02, 0.3, randoms)
        with SlabExecutor("serial") as serial_ex:
            want_bs = one_shot(compile_price_parallel, batch,
                               executor=serial_ex)
            want_mc = one_shot(compile_price_stream, *mc,
                               executor=serial_ex)
        errors = []

        def work(ex):
            try:
                for _ in range(20):
                    mine = random_batch(2048, seed=7)
                    assert np.array_equal(
                        one_shot(compile_price_parallel, mine, executor=ex),
                        want_bs)
                    assert np.array_equal(
                        one_shot(compile_price_stream, *mc, executor=ex),
                        want_mc)
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        with SlabExecutor("thread", n_workers=2) as ex:
            threads = [threading.Thread(target=work, args=(ex,))
                       for _ in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert ex._live_dispatches == []

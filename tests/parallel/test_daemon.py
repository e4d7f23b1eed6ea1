"""Standing-daemon tests: serial-identical digests on every registered
parallel kernel, worker-crash detection with clean shutdown, the pin
lifecycle (one pin per compiled dispatch, none after a one-shot, worker
mappings released on unpin), the clear-error contract (a stopped daemon
or an unpinned plan raises, never hangs), a SIGKILLed owner's workers
exit rather than park forever, and its segments are reaped by the next
process that starts an arena."""

import glob
import os
import signal
import subprocess
import sys
import textwrap
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import registry
from repro.config import SMOKE_SIZES
from repro.errors import DaemonError, DaemonNotRunningError
from repro.parallel import ShmArena, SlabDaemon, SlabExecutor
from repro.parallel.daemon import _PARK_QUANTUM

KERNELS = registry.parallel_kernels()


def _scale(arrays, consts, a, b, slab):
    arrays["out"][:] = arrays["x"] * consts["k"]
    return slab


class TestDigestAgreement:
    """The acceptance audit: daemon results bit-identical to serial,
    for every registered parallel-tier kernel."""

    @pytest.fixture(scope="class")
    def daemon_ex(self):
        with SlabExecutor("daemon", n_workers=2) as ex:
            yield ex

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_daemon_matches_serial(self, kernel, daemon_ex):
        payload = registry.workload(kernel).build(SMOKE_SIZES, seed=2012)
        tier = registry.parallel_tier(kernel)
        with SlabExecutor("serial") as serial_ex:
            base = np.asarray(
                registry.impl(kernel, tier, "serial").fn(payload, serial_ex))
        out = np.asarray(
            registry.impl(kernel, tier, "daemon").fn(payload, daemon_ex))
        assert out.tobytes() == base.tobytes(), \
            f"{kernel}[daemon] diverged from serial bit-for-bit"


class TestCrashDetection:
    def test_worker_crash_raises_and_stop_is_clean(self):
        x = np.arange(64, dtype=np.float64)
        out = np.zeros_like(x)
        ex = SlabExecutor("daemon", n_workers=2, slab_bytes=256)
        try:
            ex.map_shm(_scale, x.shape[0], bytes_per_item=16,
                       sliced={"x": x, "out": out},
                       writes=("out",), consts={"k": 2.0})
            assert np.array_equal(out, x * 2.0)
            victim = ex._daemon._procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10.0)
            assert not victim.is_alive()
            with pytest.raises(DaemonError, match="died with exit code"):
                ex.map_shm(_scale, x.shape[0], bytes_per_item=16,
                           sliced={"x": x, "out": out},
                           writes=("out",), consts={"k": 3.0})
        finally:
            ex.close()                  # must not raise after the crash
        rings = ex._daemon
        assert rings is None            # executor fully detached

    def test_stop_is_idempotent(self):
        d = SlabDaemon(1).start()
        d.stop()
        d.stop()


class TestClearErrors:
    def test_stopped_daemon_raises_not_running(self):
        d = SlabDaemon(1).start()
        d.stop()
        with pytest.raises(DaemonNotRunningError, match="not running"):
            d.ping()

    def test_unpinned_plan_rejected(self):
        with SlabExecutor("daemon", n_workers=1) as ex:
            with pytest.raises(DaemonError, match="not pinned"):
                ex._get_daemon().dispatch(12345)


class TestStatus:
    def test_status_reports_abi_workers_and_pins(self):
        x = np.arange(64, dtype=np.float64)
        out = np.zeros_like(x)
        with SlabExecutor("daemon", n_workers=2, slab_bytes=256) as ex:
            ex.compile_shm(_scale, x.shape[0], bytes_per_item=16,
                           sliced={"x": x, "out": out},
                           writes=("out",), consts={"k": 2.0}).run()
            status = ex._daemon.status()
            from repro.parallel.ring import ABI_VERSION
            assert status["abi"] == ABI_VERSION
            assert status["n_workers"] == 2
            assert status["workers_alive"] == 2
            assert status["plans_pinned"] == 1
            # Operator-facing pin detail: id, fan-out, output-set CRC.
            (pin,) = status["pinned"]
            assert pin["plan_id"] in ex._daemon._plans
            assert pin["n_slabs"] == ex._daemon._plans[pin["plan_id"]]
            assert pin["output_set_id"] == \
                ex._daemon._plan_outs[pin["plan_id"]]

    def test_status_pins_empty_when_nothing_pinned(self):
        with SlabExecutor("daemon", n_workers=1, slab_bytes=256) as ex:
            ex._get_daemon()           # spin up without pinning
            status = ex._daemon.status()
            assert status["plans_pinned"] == 0
            assert status["pinned"] == []


class TestPinLifecycle:
    def test_repeat_calls_reuse_one_pin(self):
        x = np.arange(64, dtype=np.float64)
        out = np.zeros_like(x)
        with SlabExecutor("daemon", n_workers=2, slab_bytes=256) as ex:
            dispatch = ex.compile_shm(
                _scale, x.shape[0], bytes_per_item=16,
                sliced={"x": x, "out": out}, writes=("out",),
                consts={"k": 2.0})
            for scale in (1.0, 3.0, 4.0):
                x[:] = np.arange(64) * scale     # refreshed in place
                dispatch.run()
                assert np.array_equal(out, x * 2.0)
                assert len(ex._daemon._plans) == 1
            dispatch.close()
            assert ex._daemon._plans == {}

    def test_one_shots_pin_fresh_constants_and_leave_no_pin(self):
        x = np.arange(64, dtype=np.float64)
        out = np.zeros_like(x)
        with SlabExecutor("daemon", n_workers=2, slab_bytes=256) as ex:
            for k in (2.0, 3.0, 4.0):
                ex.map_shm(_scale, x.shape[0], bytes_per_item=16,
                           sliced={"x": x, "out": out},
                           writes=("out",), consts={"k": k})
                assert np.array_equal(out, x * k)
                assert ex._daemon._plans == {}
                assert ex._daemon.ping() == [(0, 0), (1, 0)]


#: An owner with a live two-worker daemon (one Black-Scholes plan run
#: on it, as in production) prints its workers' pids and SIGKILLs
#: itself, so no exit guard runs.  With ``HOLD`` it first forks a
#: sleeper that inherits every pipe end the owner holds, so the
#: workers never see EOF and only the park-timeout parent check can
#: notice the owner is gone.
ORPHAN = """
import os, signal, time
from repro.parallel import SlabExecutor
from repro.plan import compile_plan
ex = SlabExecutor("daemon", n_workers=2, slab_bytes=4096)
plan = compile_plan("black_scholes", "parallel", executor=ex,
                    backend="daemon")
plan.run()
holder = os.fork() if HOLD else 1
if holder == 0:
    time.sleep(60)
    os._exit(0)
print(holder, *(p.pid for p in ex._daemon._procs), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _gone(pid: int) -> bool:
    """Exited: no such process, or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


class TestOrphanedWorkers:
    @pytest.mark.parametrize("hold", [False, True],
                             ids=["eof", "parent-check"])
    def test_owner_sigkill_takes_its_workers(self, hold):
        script = textwrap.dedent(ORPHAN).replace("HOLD", str(hold))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        # Read one line, not to EOF: orphans still hold the pipe.
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, text=True)
        with proc.stdout:
            line = proc.stdout.readline()
        assert proc.wait(timeout=120) == -signal.SIGKILL
        holder, *workers = map(int, line.split())
        try:
            assert len(workers) == 2
            deadline = time.monotonic() + 6 * _PARK_QUANTUM
            while time.monotonic() < deadline \
                    and not all(map(_gone, workers)):
                time.sleep(0.05)
            assert [pid for pid in workers if not _gone(pid)] == []
        finally:
            if hold:
                os.kill(holder, signal.SIGKILL)
            # SIGKILL ran no unlink guard: sweep what the owner left.
            for path in glob.glob(f"/dev/shm/repro{proc.pid}x*") \
                    + glob.glob(f"/dev/shm/reprod{proc.pid}x*"):
                os.unlink(path)


#: An owner with a live two-worker daemon and one compiled plan prints
#: its pid and SIGKILLs its whole process group: workers and the
#: resource tracker (which would otherwise unlink the owner's segments
#: once every pipe to it closed) die with it, and no exit guard runs.
GROUP_KILL = """
import os, signal
from repro.parallel import SlabExecutor
from repro.plan import compile_plan
ex = SlabExecutor("daemon", n_workers=2, slab_bytes=4096)
plan = compile_plan("black_scholes", "parallel", executor=ex,
                    backend="daemon")
plan.run()
print(os.getpid(), flush=True)
os.killpg(0, signal.SIGKILL)
"""

#: A fresh process that starts an executor's arena.
FRESH_OWNER = """
from repro.parallel import SlabExecutor
with SlabExecutor("daemon", n_workers=1) as ex:
    ex.shm_arena()
"""


def _owned_by(pid: int) -> list:
    return sorted(glob.glob(f"/dev/shm/repro{pid}x*")
                  + glob.glob(f"/dev/shm/reprod{pid}x*"))


class TestDeadOwnerSegments:
    def test_next_owner_reaps_a_dead_owners_segments(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(GROUP_KILL)], env=env,
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        with proc.stdout:
            dead = int(proc.stdout.readline())
        assert proc.wait(timeout=120) == -signal.SIGKILL
        neighbour = ShmArena()
        other = None
        try:
            # Precondition: the kill stranded rings and arena segments.
            left = _owned_by(dead)
            assert any("/reprod" in p for p in left), left
            assert any("/reprod" not in p for p in left), left
            live = neighbour.segment("live", 64).name
            other = shared_memory.SharedMemory(
                name=f"reproleak{dead}", create=True, size=64)
            subprocess.run([sys.executable, "-c",
                            textwrap.dedent(FRESH_OWNER)],
                           env=env, check=True, timeout=120)
            assert _owned_by(dead) == []
            assert os.path.exists(f"/dev/shm/{live}")
            assert os.path.exists(f"/dev/shm/{other.name}")
        finally:
            neighbour.close()
            if other is not None:
                other.close()
                other.unlink()
            for path in _owned_by(dead):
                os.unlink(path)

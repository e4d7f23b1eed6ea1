"""Standing-daemon tests: serial-identical digests on every registered
parallel kernel, worker-crash detection with clean shutdown, the pin
lifecycle (one pin per compiled dispatch, none after a one-shot, worker
mappings released on unpin), and the clear-error contract (not-running
and ring-ABI failures raise, never hang)."""

import json
import os
import signal

import numpy as np
import pytest

from repro import registry
from repro.config import SMOKE_SIZES
from repro.errors import DaemonError, DaemonNotRunningError, RingABIError
from repro.parallel import SlabDaemon, SlabExecutor
from repro.parallel.daemon import DaemonClient

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

    def test_client_without_state_file_raises_not_running(self, tmp_path):
        with pytest.raises(DaemonNotRunningError, match="no daemon state"):
            DaemonClient(state_path=str(tmp_path / "absent.json"))

    def test_client_dead_pid_raises_not_running(self, tmp_path):
        state = tmp_path / "dead.json"
        # Spawn-and-reap a child so the pid is guaranteed dead.
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        state.write_text(json.dumps({"pid": pid, "abi": 1,
                                     "socket": "unused"}))
        with pytest.raises(DaemonNotRunningError, match="not running"):
            DaemonClient(state_path=str(state))

    def test_client_abi_mismatch_raises(self, tmp_path):
        state = tmp_path / "abi.json"
        state.write_text(json.dumps({"pid": os.getpid(), "abi": 999,
                                     "socket": "unused"}))
        with pytest.raises(RingABIError, match="ABI v999"):
            DaemonClient(state_path=str(state))

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

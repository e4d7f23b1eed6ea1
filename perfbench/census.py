"""Leak census and memory high-water mark, read from ``/proc``.

A run takes a census before it builds anything and again after
teardown: ``/dev/shm/repro*`` segments, open file descriptors and child
processes must be back at the baseline.
"""

from __future__ import annotations

import glob
import os


def shm_segments() -> set:
    """Names of the program's shared-memory segments (ring and arena
    segments are all named ``repro...``)."""
    return {os.path.basename(p) for p in glob.glob("/dev/shm/repro*")}


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def child_pids() -> set:
    pids = set()
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as fh:
                pids.update(int(p) for p in fh.read().split())
        except OSError:
            continue
    return pids


def _status_kb(pid, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its live children (daemon
    workers), MB.  Read while no set-up round runs: a round's child is
    a second copy of the stack, not part of the workload."""
    total = _status_kb("self", "VmHWM")
    for pid in child_pids():
        total += _status_kb(pid, "VmHWM")
    return total / 1024.0


def cpu_seconds() -> float:
    """CPU time used so far by this process and its live children."""
    total = sum(os.times()[:2])
    tick = os.sysconf("SC_CLK_TCK")
    for pid in child_pids():
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def stop_resource_tracker() -> None:
    """Stop Python's own helper process.  The first shared-memory
    segment a process creates starts ``multiprocessing.resource_tracker``,
    which then lives, with one pipe to it, until the interpreter exits
    (and would outlive it by a moment).  Stopped here so that it is not
    counted as the program's leak and no process is left behind; it
    restarts on demand."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class Census:
    """Baseline taken at construction; :meth:`leaks` compares to it."""

    def __init__(self):
        self.shm = shm_segments()
        self.fds = open_fds()
        self.children = child_pids()

    def leaks(self) -> dict:
        # Segments first: the tracker unlinks what it finds registered
        # when it stops, which would hide a leak.
        shm = sorted(shm_segments() - self.shm)
        stop_resource_tracker()
        return {"shm_segments": shm,
                "fds": max(0, open_fds() - self.fds),
                "children": sorted(child_pids() - self.children)}

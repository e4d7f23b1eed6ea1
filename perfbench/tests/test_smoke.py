"""Two-second runs of the real command: every workload emits every
declared name, and the self-tests make a run fail."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import spec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def bench(*extra, cwd=ROOT, seconds="2"):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--seed", "5", "--seconds", seconds, *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_emitted(workload, trace):
    proc, result = bench("--workload", workload, "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = spec.END_TO_END if trace == "0" else spec.PER_LAYER
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["parallel.shm_segments_leaked"]["value"] == 0


@pytest.mark.parametrize("workload", ["batch_kernels", "serve_steady"])
def test_one_flipped_bit_is_reported(workload):
    proc, result = bench("--workload", workload, "--trace", "0",
                         "--inject", "bitflip")
    assert proc.returncode != 0
    assert result["correct"] is False
    assert "WRONG" in proc.stdout


def test_a_stranded_segment_is_reported():
    proc, result = bench("--workload", "batch_kernels", "--trace", "0",
                         "--inject", "shm_leak")
    assert proc.returncode != 0
    assert result["correct"] is False
    assert "LEAK shm_segments" in proc.stdout


def test_no_result_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("--workload", "batch_kernels", "--trace", "0",
                         cwd=str(tmp_path))
    assert proc.returncode != 0
    assert result is None

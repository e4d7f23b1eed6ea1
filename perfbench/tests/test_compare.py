"""Verdicts of ``python -m perfbench compare``."""

from perfbench.compare import compare, spread, verdict


def doc(values_by_metric):
    runs = []
    n = len(next(iter(values_by_metric.values())))
    for i in range(n):
        runs.append({"workloads": {"batch_kernels": {"metrics": {
            name: {"value": vals[i]}
            for name, vals in values_by_metric.items()}}}})
    return {"runs": runs}


def test_ok_worse_unresolved():
    a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(a, [v * 1.05 for v in a], "lower", 0.10) == "ok"
    assert verdict(a, [v * 1.20 for v in a], "lower", 0.10) == "worse"
    assert verdict(a, [v / 1.20 for v in a], "higher", 0.10) == "worse"
    noisy = [80.0, 120.0, 95.0, 130.0, 100.0]
    assert spread(noisy) > 0.10
    assert verdict(noisy, noisy, "lower", 0.10) == "unresolved"
    # Wide, but every run of B beats every run of A: resolved.
    assert verdict(noisy, [v / 2 for v in noisy], "lower", 0.10) == "ok"


def test_rows_carry_quartiles_and_ratio_with_base():
    a = doc({"latency_p50_ms": [100.0, 102.0, 98.0]})
    b = doc({"latency_p50_ms": [125.0, 127.0, 123.0]})
    (row,) = compare(a, b)
    assert row["workload"] == "batch_kernels"
    assert row["a"][1] == 100.0 and row["b"][1] == 125.0
    assert row["ratio"] == 1.25
    assert row["verdict"] == "worse"

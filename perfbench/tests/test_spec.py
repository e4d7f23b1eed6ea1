"""``spec.py`` and ``BENCHMARK.json`` stay in step and inside the
contract's limits."""

import ast
import json
import os
import re

from perfbench import spec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_is_what_spec_describes():
    assert manifest() == spec.manifest()


def test_limits():
    doc = manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int)
    assert 1 <= doc["run_seconds"] <= 60
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 5) <= 3420
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) < 64 * 1024


def test_names_units_and_whys():
    doc = manifest()
    names = [w["name"] for w in doc["workloads"]] \
        + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_bounds_and_setup_metric():
    end_to_end = {m["name"]: m for m in manifest()["end_to_end"]}
    for m in end_to_end.values():
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.05 <= m["bound"] <= 0.25
    assert end_to_end["setup_s"]["unit"] == "s"
    assert end_to_end["setup_s"]["better"] == "lower"
    assert end_to_end["setup_s"]["bound"] == max(
        m["bound"] for m in end_to_end.values())
    for m in manifest()["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_every_timed_quantity_declares_a_yardstick():
    from perfbench.yardstick import YARDS
    assert set(spec.YARD_REF_US) == set(YARDS)
    for quantity, shares in spec.YARDSTICK.items():
        assert set(shares) <= set(YARDS), quantity
        assert all(s >= 0.0 for s in shares.values()), quantity
        assert sum(shares.values()) <= 1.0 + 1e-9, quantity
    for k in spec.KERNELS:
        assert f"kernel.{k}" in spec.YARDSTICK
    for name in spec.SERVE:
        assert f"{name}.closed_window" in spec.YARDSTICK


def test_yardstick_imports_nothing_from_repro():
    path = os.path.join(ROOT, "perfbench", "yardstick.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in the yardstick"
            imported.add(node.module.split(".")[0])
    assert imported == {"time", "numpy"}

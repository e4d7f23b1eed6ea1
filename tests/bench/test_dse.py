"""measure_dse: modeled surfaces, chip anchors, rendering."""

import ast
import inspect

import pytest

from repro.bench import GAP_KERNELS, dse, dse_result, measure_dse
from repro.bench.export import render
from repro.tune import SMOKE_AXES, design_grid


class TestMeasureDse:
    @pytest.fixture(scope="class")
    def data(self):
        return measure_dse(axes=SMOKE_AXES)

    def test_surfaces_cover_every_modeled_kernel(self, data):
        assert set(data["surfaces"]) == set(GAP_KERNELS)
        n_grid = len(design_grid(SMOKE_AXES))
        for surf in data["surfaces"].values():
            assert len(surf["grid"]) == n_grid
            assert {a["platform"] for a in surf["anchors"]} == \
                {"SNB-EP", "KNC"}

    def test_anchor_gaps_match_registered_models(self, data):
        from repro.kernels import build_model
        km = build_model("black_scholes")
        anchors = {a["platform"]: a
                   for a in data["surfaces"]["black_scholes"]["anchors"]}
        assert anchors["SNB-EP"]["ninja_gap"] == pytest.approx(
            km.ninja_gap("SNB-EP"))

    def test_result_renders_one_row_per_kernel(self, data):
        result = dse_result(data)
        assert [row[0] for row in result.rows] == list(GAP_KERNELS)
        text = render(result, "text")
        for kernel in GAP_KERNELS:
            assert kernel in text
        render(result, "json")                 # alt formats stay valid
        render(result, "csv")

    def test_record_is_a_function_of_the_model(self, data):
        # Nothing is timed: two runs give the same record, and the
        # driver neither runs a kernel nor builds an executor.
        assert measure_dse(axes=SMOKE_AXES) == data
        names = {node.attr if isinstance(node, ast.Attribute) else node.id
                 for node in ast.walk(ast.parse(inspect.getsource(dse)))
                 if isinstance(node, (ast.Attribute, ast.Name))}
        assert not names & {"fn", "SlabExecutor", "perf_counter", "time"}

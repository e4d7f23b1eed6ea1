"""Design-space sweep: grids, variants, crossover model, anchors."""

import pytest

from repro.arch import KNC, SNB_EP
from repro.errors import ConfigurationError
from repro.tune import (SMOKE_AXES, DesignPoint, anchor_rows,
                        crossover_items, design_grid, kernel_surface,
                        modeled_crossover_bytes, rebuild_model, variant_for)


class TestGrid:
    def test_grid_is_the_full_cartesian_product(self):
        points = design_grid(SMOKE_AXES)
        want = 1
        for axis in SMOKE_AXES.values():
            want *= len(axis)
        assert len(points) == want
        assert len(set(points)) == len(points)

    def test_variant_reflects_the_point(self):
        p = DesignPoint(cores=8, simd_width_dp=8, llc_mb=16,
                        stream_bw_gbs=100.0)
        v = variant_for(p)
        assert v.total_cores == 8
        assert v.simd_width_dp == 8
        assert v.caches[-1].size == 16 << 20
        assert v.stream_bw_gbs == 100.0
        v.validate_against_table1()    # peaks re-derived consistently

    def test_rebuilt_model_prices_on_the_variant(self):
        p = DesignPoint(cores=4, simd_width_dp=4, llc_mb=20,
                        stream_bw_gbs=76.0)
        v = variant_for(p)
        km = rebuild_model("black_scholes", v)
        assert km.ninja_gap(v.name) > 1.0


class TestCrossover:
    def test_single_core_never_crosses_over(self):
        assert crossover_items(1e-8, 1) == float("inf")

    def test_more_cores_lower_the_crossover(self):
        n2 = crossover_items(1e-8, 2)
        n16 = crossover_items(1e-8, 16)
        assert n16 < n2

    def test_slower_items_cross_over_sooner(self):
        assert crossover_items(1e-6, 4) < crossover_items(1e-8, 4)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ConfigurationError):
            crossover_items(0.0, 4)

    def test_modeled_crossover_scales_with_overhead(self):
        lo = modeled_crossover_bytes("black_scholes", SNB_EP,
                                     dispatch_overhead_s=10e-6)
        hi = modeled_crossover_bytes("black_scholes", SNB_EP,
                                     dispatch_overhead_s=100e-6)
        assert hi == pytest.approx(10 * lo)

    def test_knc_crossover_below_snb(self):
        # More cores + a slower clock: KNC amortizes the dispatch
        # overhead on a smaller working set than SNB-EP.
        assert (modeled_crossover_bytes("black_scholes", KNC)
                < modeled_crossover_bytes("black_scholes", SNB_EP))


class TestSurfaces:
    def test_surface_rows_cover_the_grid(self):
        rows = kernel_surface("black_scholes", SMOKE_AXES)
        assert len(rows) == len(design_grid(SMOKE_AXES))
        for row in rows:
            assert row["ninja_gap"] >= 1.0
            assert row["bound"] in ("compute", "bandwidth")
            assert row["crossover_bytes"] > 0

    def test_anchors_match_registered_models(self):
        from repro.kernels import build_model
        km = build_model("black_scholes")
        rows = {r["platform"]: r for r in anchor_rows("black_scholes")}
        assert set(rows) == {"SNB-EP", "KNC"}
        assert rows["SNB-EP"]["ninja_gap"] == pytest.approx(
            km.ninja_gap("SNB-EP"))
        assert rows["KNC"]["cores"] == KNC.total_cores


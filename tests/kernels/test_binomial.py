"""Binomial-tree kernel tests: tier agreement, tiling correctness,
convergence, traced instruction counts, Fig. 5 shape."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import KNC, SNB_EP, CostModel, ExecutionContext
from repro.errors import DomainError
from repro.kernels.binomial import (build, compute_bound, crr_params,
                                    default_tile_size, leaf_values,
                                    price_basic, price_reference,
                                    price_simd_across, price_tiled,
                                    reference_trace, simd_across_trace,
                                    tiled_reduce, tiled_trace,
                                    traced_inner_loop, traced_simd_across,
                                    traced_tiled)
from repro.pricing import ExerciseStyle, Option, OptionKind, bs_call, bs_put
from repro.simd import VectorMachine
from repro.validation import AMERICAN_PUT_ANCHOR, observed_order


class TestParams:
    def test_crr_probability_in_range(self, atm_option):
        p = crr_params(atm_option, 256)
        assert 0 < p.pu_by_df and 0 < p.pd_by_df
        assert p.u > 1 > p.d
        assert p.u * p.d == pytest.approx(1.0)

    def test_coarse_grid_rejected(self):
        o = Option(100, 100, 10.0, 0.20, 0.05)  # huge drift, tiny vol
        with pytest.raises(DomainError):
            crr_params(o, 2)

    def test_leaf_values_are_payoffs(self, atm_option):
        p = crr_params(atm_option, 64)
        leaves = leaf_values(atm_option, p)
        assert leaves.shape == (65,)
        assert leaves[0] == 0.0          # deep-down call is worthless
        assert leaves[-1] > 0            # deep-up call pays


class TestTierAgreement:
    def test_basic_equals_reference(self, option_group):
        for o in option_group:
            assert price_basic(o, 64) == pytest.approx(
                price_reference(o, 64), abs=1e-12)

    def test_simd_across_equals_reference(self, option_group):
        got = price_simd_across(option_group, 64)
        want = [price_reference(o, 64) for o in option_group]
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("ts", [1, 2, 5, 8, 16, 64])
    def test_tiled_equals_reference_any_tile(self, option_group, ts):
        got = price_tiled(option_group, 64, ts=ts)
        want = [price_reference(o, 64) for o in option_group]
        assert np.allclose(got, want, atol=1e-12)

    @given(st.integers(4, 96), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_tiled_reduce_property(self, n_steps, ts):
        """Tiling is a pure reordering: identical to plain reduction for
        any (steps, tile) combination."""
        rng = np.random.default_rng(n_steps * 100 + ts)
        values = rng.uniform(0, 10, n_steps + 1)
        pu, pd = 0.503, 0.492
        plain = values.copy()
        for i in range(n_steps, 0, -1):
            plain[:i] = pu * plain[1:i + 1] + pd * plain[:i]
        got = tiled_reduce(values[None, :], n_steps, np.array([pu]),
                           np.array([pd]), ts)
        assert got[0] == pytest.approx(plain[0], rel=1e-12)

    def test_tiled_rejects_american(self, american_put):
        with pytest.raises(DomainError):
            price_tiled([american_put], 64)

    def test_tiled_rejects_empty(self):
        with pytest.raises(DomainError):
            price_tiled([], 64)

    def test_default_tile_size(self):
        assert default_tile_size(16) == 8   # SNB-EP: 16 ymm
        assert default_tile_size(32) == 16  # KNC: 32 zmm


class TestConvergence:
    def test_converges_to_black_scholes(self, atm_option):
        exact = float(bs_call(100, 100, 1.0, 0.05, 0.2))
        errors, scales = [], []
        for n in (64, 128, 256, 512):
            errors.append(abs(price_basic(atm_option, n) - exact))
            scales.append(1.0 / n)
        order = observed_order(errors, scales)
        assert 0.8 < order < 1.6  # first-order in 1/N

    def test_put_via_parity(self):
        o = Option(100, 100, 1.0, 0.05, 0.2, OptionKind.PUT)
        exact = float(bs_put(100, 100, 1.0, 0.05, 0.2))
        assert price_basic(o, 2048) == pytest.approx(exact, abs=0.01)


class TestAmerican:
    def test_american_put_anchor(self, american_put):
        v = price_basic(american_put, 4096)
        assert v == pytest.approx(AMERICAN_PUT_ANCHOR, abs=2e-3)

    def test_american_geq_european(self, american_put):
        euro = Option(100, 100, 1.0, 0.05, 0.3, OptionKind.PUT)
        assert price_basic(american_put, 512) > price_basic(euro, 512)

    def test_american_call_no_dividends_equals_european(self):
        am = Option(100, 100, 1.0, 0.05, 0.3, OptionKind.CALL,
                    ExerciseStyle.AMERICAN)
        eu = Option(100, 100, 1.0, 0.05, 0.3, OptionKind.CALL)
        assert price_basic(am, 512) == pytest.approx(
            price_basic(eu, 512), abs=1e-10)

    def test_american_simd_matches_scalar(self, american_put):
        group = [american_put] * 4
        got = price_simd_across(group, 128)
        want = price_reference(american_put, 128)
        assert np.allclose(got, want, atol=1e-12)


class TestTracedImplementations:
    """Mechanical validation of the model's instruction-count claims."""

    def _setup(self, n=32):
        opts = [Option(100, 90 + 4 * i, 1.0, 0.02, 0.3) for i in range(4)]
        ps = [crr_params(o, n) for o in opts]
        leaves = np.array([leaf_values(o, p) for o, p in zip(opts, ps)])
        pu = [p.pu_by_df for p in ps]
        pd = [p.pd_by_df for p in ps]
        refs = np.array([price_reference(o, n) for o in opts])
        return opts, leaves, pu, pd, refs, n

    def test_inner_loop_has_unaligned_loads(self):
        opts, leaves, pu, pd, refs, n = self._setup()
        m = VectorMachine(4, SNB_EP)
        v = traced_inner_loop(m, leaves[0], pu[0], pd[0])
        assert v == pytest.approx(refs[0], abs=1e-12)
        assert m.trace.unaligned_loads > 0

    def test_simd_across_all_aligned(self):
        opts, leaves, pu, pd, refs, n = self._setup()
        m = VectorMachine(4, SNB_EP)
        got = traced_simd_across(m, leaves, pu, pd)
        assert np.allclose(got, refs, atol=1e-12)
        assert m.trace.unaligned_loads == 0

    def test_tiling_cuts_memory_traffic(self):
        opts, leaves, pu, pd, refs, n = self._setup()
        m_simd = VectorMachine(4, SNB_EP)
        traced_simd_across(m_simd, leaves, pu, pd)
        m_tile = VectorMachine(4, SNB_EP)
        got = traced_tiled(m_tile, leaves, pu, pd, ts=8)
        assert np.allclose(got, refs, atol=1e-12)
        # >= 5x fewer memory instructions at TS=8 (triangle overhead
        # keeps it below the ideal 8x at this small N).
        assert m_simd.trace.mem_instrs > 5 * m_tile.trace.mem_instrs

    def test_tiling_keeps_arithmetic_equal(self):
        """Same reduction, same flops (mul+fma pipeline vs mul+add)."""
        opts, leaves, pu, pd, refs, n = self._setup()
        m_simd = VectorMachine(4, SNB_EP)
        traced_simd_across(m_simd, leaves, pu, pd)
        m_tile = VectorMachine(4, SNB_EP)
        traced_tiled(m_tile, leaves, pu, pd, ts=8)
        assert m_tile.trace.flops == pytest.approx(
            m_simd.trace.flops, rel=0.05)


class TestFig5Shape:
    @pytest.fixture(scope="class")
    def km(self):
        return build(n_steps=1024)

    def test_knc_reference_faster(self, km):
        ratio = (km.reference("KNC").throughput
                 / km.reference("SNB-EP").throughput)
        assert 1.1 < ratio < 2.0  # paper: 1.4x

    def test_simd_across_hardly_improves(self, km):
        for arch in ("SNB-EP", "KNC"):
            gain = (km.perf("Intermediate (SIMD Across options)",
                            arch).throughput
                    / km.reference(arch).throughput)
            assert gain < 1.8

    def test_tiling_with_simd_doubles(self, km):
        for arch in ("SNB-EP", "KNC"):
            gain = (km.perf("Advanced (Register Tiling)", arch).throughput
                    / km.reference(arch).throughput)
            assert gain > 1.8

    def test_unroll_helps_knc_more(self, km):
        def unroll_gain(arch):
            return (km.perf("Basic (Unrolled)", arch).throughput
                    / km.perf("Advanced (Register Tiling)",
                              arch).throughput)
        assert unroll_gain("KNC") > 1.3
        assert unroll_gain("SNB-EP") < 1.2

    def test_final_ratio_matches_paper(self, km):
        ratio = km.best("KNC").throughput / km.best("SNB-EP").throughput
        assert 2.3 < ratio < 3.0  # paper: 2.6x

    def test_snb_within_10pct_of_bound(self, km):
        frac = km.best("SNB-EP").throughput / compute_bound(SNB_EP, 1024)
        assert frac > 0.9

    def test_knc_within_30pct_of_bound(self, km):
        frac = km.best("KNC").throughput / compute_bound(KNC, 1024)
        assert frac > 0.7

    def test_throughput_scales_inversely_with_steps_squared(self):
        k1 = build(n_steps=1024).best("KNC").throughput
        k2 = build(n_steps=2048).best("KNC").throughput
        assert k1 / k2 == pytest.approx(4.0, rel=0.05)

    def test_traces_scale_linearly_in_options(self):
        t1 = reference_trace(SNB_EP, 256, n_options=16)
        t2 = reference_trace(SNB_EP, 256, n_options=32)
        assert t2.arith_instrs == 2 * t1.arith_instrs

    def test_tiled_trace_mem_reduction(self):
        simd = simd_across_trace(KNC, 1024)
        tile = tiled_trace(KNC, 1024)
        assert simd.mem_instrs > 5 * tile.mem_instrs

    def test_tile_size_curve(self):
        """Modeled cycles/option against the register-tile size TS."""
        def curve(arch):
            model = CostModel(arch)
            ctx = ExecutionContext(unrolled=True)
            return {ts: model.compute_cycles(
                        tiled_trace(arch, 1024, n_options=16, ts=ts,
                                    unrolled=True), ctx).total_cycles / 16
                    for ts in (1, 8, 16, 32)}

        # On the in-order KNC every load shares the vector pipe: tiling
        # keeps paying, then flattens once memory is amortised.
        knc = curve(KNC)
        assert knc[8] < knc[1]
        assert abs(knc[32] - knc[16]) / knc[16] < 0.1
        # On the out-of-order SNB-EP the dual load ports hide the
        # traffic: tile size barely matters (<= 35 % swing), which is
        # why register tiling matters most where SIMD is wide and issue
        # is in order.
        snb = curve(SNB_EP)
        assert snb[8] <= snb[1]
        assert (snb[1] - snb[32]) / snb[32] < 0.35

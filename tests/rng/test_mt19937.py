"""MT19937 bit-exactness and stream tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.kernels.rng_kernel import ScalarMT19937
from repro.rng import MT19937
from repro.rng.mt19937 import (LANES, advance_window, block_workspace,
                               lane_passes, snapshot_lanes, twist_inplace,
                               uniform53_into, uniform53_lanes)
from repro.validation import (MT19937_ARRAY_SEED_FIRST,
                              MT19937_SEED_5489_FIRST)


class TestReferenceVectors:
    def test_default_seed_first_outputs(self):
        g = MT19937(5489)
        assert tuple(g.raw(5)) == MT19937_SEED_5489_FIRST

    def test_init_by_array_vector(self):
        """The mt19937ar.out test vector."""
        g = MT19937([0x123, 0x234, 0x345, 0x456])
        assert tuple(g.raw(5)) == MT19937_ARRAY_SEED_FIRST

    def test_state_matches_numpy_randomstate(self):
        for seed in (1, 42, 5489, 2012):
            ours, _ = MT19937(seed).state()
            theirs = np.random.RandomState(seed).get_state()[1]
            assert np.array_equal(ours, theirs)

    def test_uniform53_matches_numpy_random_sample(self):
        g = MT19937(123)
        rs = np.random.RandomState(123)
        assert np.array_equal(g.uniform53(10_000), rs.random_sample(10_000))

    def test_outputs_cross_twist_boundary(self):
        """Draw counts that straddle the 624-word block edge."""
        a = MT19937(7).raw(2000)
        g = MT19937(7)
        chunks = np.concatenate([g.raw(623), g.raw(1), g.raw(1376)])
        assert np.array_equal(a, chunks)


class TestAPI:
    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            MT19937(1).raw(-1)

    def test_zero_count(self):
        assert MT19937(1).raw(0).size == 0

    def test_bad_seed_type(self):
        with pytest.raises(ConfigurationError):
            MT19937(1.5)

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigurationError):
            MT19937([])

    def test_determinism(self):
        assert np.array_equal(MT19937(99).raw(100), MT19937(99).raw(100))

    def test_jumped_copy_skips_exactly(self):
        g = MT19937(3)
        ref = g.raw(1000)
        j = MT19937(3).jumped_copy(600)
        assert np.array_equal(j.raw(400), ref[600:])

    def test_jumped_copy_leaves_original(self):
        g = MT19937(3)
        g.jumped_copy(100)
        assert np.array_equal(g.raw(5), MT19937(3).raw(5))

    @pytest.mark.parametrize("mti", [0, 1, 623, 624])
    @pytest.mark.parametrize("draws", [0, 1, 623, 624, 625, 1248])
    def test_jumped_copy_block_boundaries(self, mti, draws):
        """The skip is twists plus an index: state *and* ``mti`` must
        be what ``raw()`` leaves, from every index position."""
        g, ref = MT19937(21), MT19937(21)
        for gen in (g, ref):
            gen.raw(700)            # a twisted, mid-stream state
            gen._mti = mti
        ref.raw(draws)
        jumped = g.jumped_copy(draws)
        key, pos = jumped.state()
        assert pos == ref.state()[1]
        assert np.array_equal(key, ref.state()[0])
        assert np.array_equal(jumped.raw(10), ref.raw(10))


def lane_uniform53(seed, n, cuts=()):
    """``n`` doubles through the lane-batched path: one compile-time
    walk leaving aligned snapshots per ``[cut, cut)`` stretch, then a
    warm tabulation of each stretch."""
    w, mti = MT19937(seed).state()
    walk_ws, ws = block_workspace(), block_workspace(LANES)
    advance_window(w, mti, walk_ws)
    out = np.empty(n)
    for a, b in zip((0, *cuts), (*cuts, n)):
        snaps = np.array(snapshot_lanes(w, b - a, walk_ws))
        uniform53_lanes(snaps, out[a:b], ws)
    return out


class TestLaneGenerator:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 6000), st.data())
    @settings(max_examples=30, deadline=None)
    def test_equals_scalar_stream_for_any_split(self, seed, n, data):
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=3)))
        assert np.array_equal(lane_uniform53(seed, n, cuts),
                              ScalarMT19937(seed).uniform53(n))

    @pytest.mark.parametrize("n", [
        5, 311,                      # n < 312: the tail lane only
        3 * 312,                     # fewer blocks than LANES
        2 * LANES * 312,             # R = 0
        (2 * LANES - 1) * 312 + 7,   # R = lanes - 1, and a tail
    ])
    def test_lane_layout_edges(self, n):
        passes = lane_passes(n)
        assert sum(lanes * k for lanes, k in passes) == n
        assert all(0 < lanes <= LANES for lanes, _ in passes)
        assert np.array_equal(lane_uniform53(9, n, cuts=(n // 3,)),
                              MT19937(9).uniform53(n))

    def test_one_dimensional_state_is_the_one_lane_case(self):
        mt, mti = MT19937(3).state()
        out = np.empty(1000)
        mti = uniform53_into(mt, mti, out, block_workspace())
        ref = MT19937(3)
        assert np.array_equal(out, ref.uniform53(1000))
        assert mti == ref.state()[1]
        assert np.array_equal(mt, ref.state()[0])

    @pytest.mark.parametrize("draws", [0, 1, 311, 312, 623, 624, 625, 2000])
    def test_advanced_window_is_an_aligned_state(self, draws):
        # Any 624 consecutive words of the word stream are a state.
        w, mti = MT19937(4).state()
        ws = block_workspace()
        advance_window(w, mti, ws)      # align at the stream's start
        advance_window(w, draws, ws)
        out = np.empty(700)
        uniform53_into(w, 0, out, ws)
        ref = MT19937(4)
        ref.raw(draws)
        assert np.array_equal(out, ref.uniform53(700))

    def test_strided_lanes_rejected(self):
        ws = block_workspace(4)
        with pytest.raises(ConfigurationError):
            twist_inplace(np.zeros((4, 1248), np.uint32)[:, ::2], ws)


class TestDistribution:
    def test_uniform53_range_and_moments(self):
        u = MT19937(11).uniform53(200_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1.0 / 12.0) < 0.002

    def test_uniform32_range(self):
        u = MT19937(11).uniform32(100_000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_uniform53_has_fine_resolution(self):
        """53-bit uniforms should produce values below 2^-32."""
        u = MT19937(17).uniform53(1_000_000)
        spacing = np.unique(u)
        assert np.min(np.diff(spacing)) < 2.0 ** -32

    def test_bit_balance(self):
        """Each of the 32 output bits should be ~half set."""
        r = MT19937(5).raw(100_000)
        for bit in range(32):
            frac = ((r >> np.uint32(bit)) & 1).mean()
            assert 0.49 < frac < 0.51

    def test_no_serial_correlation(self):
        u = MT19937(23).uniform53(100_000)
        corr = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(corr) < 0.01

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evmeshflow import correlation
from evmeshflow import (
    CostVolume,
    ParameterError,
    SearchGrid,
    ShapeError,
    correlate,
    seeded_rng,
    warp_features,
)

from _oracles import naive_correlate


def _full_offsets(radius):
    """Every (dx, dy) of the (2r+1) x (2r+1) square, rows of dy then dx ascending."""
    span = range(-radius, radius + 1)
    return np.array([(dx, dy) for dy in span for dx in span])


def _window(radius):
    """The dilated window's offsets as a set of (dx, dy) pairs."""
    return {(int(dx), int(dy)) for dx, dy in SearchGrid.dilated(radius).offsets}


def _oracle(feat_a, feat_b, radius, full=False):
    """naive_correlate over the window, or over the whole square cut to its rows.

    Either way scores divide by the window's offset count, so the square's
    rows at the window's offsets must equal the window's volume.
    """
    grid = SearchGrid.dilated(radius)
    if not full:
        return naive_correlate(feat_a, feat_b, grid.offsets, grid.active_count)
    square, window = _full_offsets(radius), _window(radius)
    scores = naive_correlate(feat_a, feat_b, square, grid.active_count)
    return scores[np.array([tuple(o) in window for o in square.tolist()])]


class TestDilatedMask:
    def test_negative_radius_rejected(self):
        with pytest.raises(ParameterError):
            SearchGrid.dilated(-1)

    def test_pinned_active_counts(self):
        for radius, count in enumerate((1, 9, 21, 33, 49)):
            grid = SearchGrid.dilated(radius)
            assert len(grid.offsets) == grid.active_count == count

    def test_radius_two_masks_only_diagonal_corners(self):
        square = {tuple(o) for o in _full_offsets(2).tolist()}
        assert square - _window(2) == {(2, 2), (2, -2), (-2, 2), (-2, -2)}

    def test_masked_offsets_follow_even_manhattan_rule(self):
        # The window drops every offset of Manhattan length 2k, k in [2, r],
        # and keeps the rest of the square in its row-major order.
        for radius in range(6):
            full = _full_offsets(radius)
            manhattan = np.abs(full).sum(axis=1)
            dropped = np.isin(manhattan, [2 * k for k in range(2, radius + 1)])
            offsets = SearchGrid.dilated(radius).offsets
            assert offsets.dtype == np.int64
            assert np.array_equal(offsets, full[~dropped])

    def test_center_and_symmetries(self):
        for radius in range(6):
            window = _window(radius)
            assert (0, 0) in window
            assert {(-dx, -dy) for dx, dy in window} == window
            assert {(-dx, dy) for dx, dy in window} == window
            assert {(dy, dx) for dx, dy in window} == window

    def test_dense_core_always_active(self):
        # Dropped Manhattan lengths are even and >= 4, so the full
        # |dx|+|dy| <= 3 neighborhood survives at any radius.
        for radius in range(2, 8):
            core = {tuple(o) for o in _full_offsets(radius).tolist() if abs(o[0]) + abs(o[1]) <= 3}
            assert core <= _window(radius)

    def test_strictly_sparser_than_full_from_radius_two(self):
        for radius in range(2, 8):
            side = 2 * radius + 1
            assert len(_window(radius)) < side * side

    def test_radius_four_matches_radius_three_cost(self):
        assert SearchGrid.dilated(4).active_count == (2 * 3 + 1) ** 2


class TestSearchGrid:
    def test_dilated_constructor(self):
        grid = SearchGrid.dilated(4)
        assert grid == SearchGrid(4)
        assert grid.active_count == 49
        assert [field.name for field in dataclasses.fields(SearchGrid)] == ["radius"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.radius = 2

    def test_center_must_stay_active(self):
        for radius in range(8):
            assert [0, 0] in SearchGrid(radius).offsets.tolist()

    def test_negative_radius(self):
        with pytest.raises(ParameterError):
            SearchGrid(-2)

    def test_offsets_enumerate_active_entries(self):
        grid = SearchGrid.dilated(2)
        offsets = {tuple(o) for o in grid.offsets}
        assert len(offsets) == 21
        assert (0, 0) in offsets
        assert (2, 2) not in offsets
        assert all(max(abs(dx), abs(dy)) <= 2 for dx, dy in offsets)


class TestCorrelate:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            correlate(np.zeros((2, 4, 4)), np.zeros((2, 4, 5)), SearchGrid(1))
        with pytest.raises(ShapeError):
            correlate(np.zeros((4, 4)), np.zeros((4, 4)), SearchGrid(1))

    def test_constant_features_interior_value(self):
        feat = np.full((3, 8, 8), 2.0)  # squared norm S = 12 per pixel
        grid = SearchGrid.dilated(2)
        vol = correlate(feat, feat, grid)
        interior = vol.scores[:, 2:-2, 2:-2]
        assert np.allclose(interior, 12.0 / grid.active_count)

    def test_zero_second_feature_zero_volume(self):
        rng = seeded_rng(1)
        feat_a = rng.normal(size=(4, 6, 6))
        vol = correlate(feat_a, np.zeros_like(feat_a), SearchGrid.dilated(3))
        assert not vol.scores.any()

    def test_matches_naive_oracle(self):
        rng = seeded_rng(2)
        feat_a = rng.normal(size=(4, 8, 8))
        feat_b = rng.normal(size=(4, 8, 8))
        vol = correlate(feat_a, feat_b, SearchGrid.dilated(2))
        assert vol.scores.tobytes() == _oracle(feat_a, feat_b, 2).tobytes()

    def test_full_grid_matches_oracle(self):
        rng = seeded_rng(3)
        feat_a = rng.normal(size=(3, 7, 5))
        feat_b = rng.normal(size=(3, 7, 5))
        vol = correlate(feat_a, feat_b, SearchGrid.dilated(2))
        assert vol.scores.tobytes() == _oracle(feat_a, feat_b, 2, full=True).tobytes()

    def test_lone_pixel_sums_channels_in_order(self):
        # 0.1 + 0.1 + 0.1 + 1000 is 1000.3 in order, but 1000.3000000000001
        # in pairs, as einsum sums the channels of a 1x1 region.
        feat_a = np.array([0.1, 0.1, 0.1, 1e3]).reshape(4, 1, 1)
        vol = correlate(feat_a, np.ones((4, 1, 1)), SearchGrid.dilated(0))
        assert vol.scores.tobytes() == _oracle(feat_a, np.ones((4, 1, 1)), 0).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), radius=st.integers(0, 4), full=st.booleans())
    def test_matches_naive_oracle_bytes(self, data, radius, full):
        # Integer values make products of zero and a negative number, so a
        # sum that starts from its first term instead of 0.0 shows as -0.0;
        # non-integer values show a fused multiply-add or another order.
        shape = data.draw(
            st.tuples(st.integers(1, 6), st.integers(1, 9), st.integers(1, 9))
        )
        value = st.one_of(
            st.integers(-3, 3).map(float),
            st.just(-0.0),
            st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
        )
        feat_a = data.draw(arrays(np.float64, shape, elements=value))
        feat_b = data.draw(arrays(np.float64, shape, elements=value))
        vol = correlate(feat_a, feat_b, SearchGrid.dilated(radius))
        assert vol.scores.tobytes() == _oracle(feat_a, feat_b, radius, full).tobytes()

    @pytest.mark.parametrize("rows", [1, 4, 7])
    @pytest.mark.parametrize("full", [False, True], ids=["dilated", "full"])
    def test_row_tiles_match_naive_oracle_bytes(self, monkeypatch, rows, full):
        # 23 rows in tiles of 1, 4 or 7 rows leave a short last tile (3 or 2
        # rows), and offsets of up to +-4 rows read across tile edges.
        channels, height, width = 3, 23, 10
        monkeypatch.setattr(correlation, "_TILE_BYTES", rows * 16 * channels * width)
        rng = seeded_rng(8)
        feat_a = rng.integers(-3, 4, (channels, height, width)).astype(np.float64)
        feat_b = rng.normal(size=(channels, height, width))
        vol = correlate(feat_a, feat_b, SearchGrid.dilated(4))
        assert vol.scores.tobytes() == _oracle(feat_a, feat_b, 4, full).tobytes()

    def test_offset_normalization_ratio(self):
        rng = seeded_rng(5)
        feat_a = rng.normal(size=(2, 9, 9))
        feat_b = rng.normal(size=(2, 9, 9))
        sparse = correlate(feat_a, feat_b, SearchGrid.dilated(4))
        full = _full_offsets(4)
        dense = naive_correlate(feat_a, feat_b, full, len(full))
        dense_by_offset = {tuple(o): dense[m] for m, o in enumerate(full)}
        for m, offset in enumerate(sparse.offsets):
            assert np.allclose(
                sparse.scores[m] * 49.0, dense_by_offset[tuple(offset)] * 81.0
            )

    def test_linear_in_first_argument(self):
        rng = seeded_rng(6)
        feat_a = rng.normal(size=(3, 6, 6))
        feat_b = rng.normal(size=(3, 6, 6))
        grid = SearchGrid.dilated(1)
        base = correlate(feat_a, feat_b, grid)
        scaled = correlate(2.5 * feat_a, feat_b, grid)
        assert np.allclose(scaled.scores, 2.5 * base.scores)

    def test_score_count_matches_active_offsets(self):
        feat = np.zeros((2, 6, 6))
        for radius in range(4):
            grid = SearchGrid.dilated(radius)
            vol = correlate(feat, feat, grid)
            assert vol.scores.shape == (grid.active_count, 6, 6)
            assert isinstance(vol, CostVolume)
            assert np.array_equal(vol.offsets, grid.offsets)


class TestWarpFeatures:
    def test_zero_flow_identity(self):
        rng = seeded_rng(7)
        feat = rng.normal(size=(3, 6, 6))
        assert np.allclose(warp_features(feat, np.zeros((6, 6, 2))), feat)

    def test_integer_shift_interior(self):
        rng = seeded_rng(8)
        feat = rng.normal(size=(2, 6, 6))
        flow = np.zeros((6, 6, 2))
        flow[..., 0] = 1.0
        out = warp_features(feat, flow)
        assert np.allclose(out[:, :, :-1], feat[:, :, 1:])

    def test_constant_channels_unchanged(self):
        feat = np.full((2, 6, 6), 3.0)
        flow = seeded_rng(9).normal(size=(6, 6, 2))
        assert np.allclose(warp_features(feat, flow), 3.0)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            warp_features(np.zeros((6, 6)), np.zeros((6, 6, 2)))
        with pytest.raises(ShapeError):
            warp_features(np.zeros((2, 6, 6)), np.zeros((4, 4, 2)))

import numpy as np
import pytest

from evmeshflow import (
    CostVolume,
    DataError,
    ParameterError,
    SearchGrid,
    ShapeError,
    average_pool,
    correlate,
    dilated_mask,
    seeded_rng,
    warp_features,
)

from _oracles import naive_correlate


class TestDilatedMask:
    def test_negative_radius_rejected(self):
        with pytest.raises(ParameterError):
            dilated_mask(-1)

    def test_pinned_active_counts(self):
        assert dilated_mask(0).sum() == 1
        assert dilated_mask(1).sum() == 9
        assert dilated_mask(2).sum() == 21
        assert dilated_mask(3).sum() == 33
        assert dilated_mask(4).sum() == 49

    def test_radius_two_masks_only_diagonal_corners(self):
        mask = dilated_mask(2)
        inactive = {(dx, dy) for dy in range(-2, 3) for dx in range(-2, 3)
                    if not mask[dy + 2, dx + 2]}
        assert inactive == {(2, 2), (2, -2), (-2, 2), (-2, -2)}

    def test_masked_offsets_follow_even_manhattan_rule(self):
        for radius in range(6):
            mask = dilated_mask(radius)
            span = np.arange(-radius, radius + 1)
            manhattan = np.abs(span)[:, None] + np.abs(span)[None, :]
            expected = np.ones_like(mask)
            for k in range(2, radius + 1):
                expected &= manhattan != 2 * k
            assert np.array_equal(mask, expected)

    def test_center_and_symmetries(self):
        for radius in range(6):
            mask = dilated_mask(radius)
            assert mask[radius, radius]
            assert np.array_equal(mask, mask[::-1, ::-1])
            assert np.array_equal(mask, mask[:, ::-1])
            assert np.array_equal(mask, mask.T)

    def test_dense_core_always_active(self):
        # Masked Manhattan lengths are even and >= 4, so the full
        # |dx|+|dy| <= 3 neighborhood survives at any radius.
        for radius in range(2, 8):
            mask = dilated_mask(radius)
            span = np.arange(-radius, radius + 1)
            manhattan = np.abs(span)[:, None] + np.abs(span)[None, :]
            assert mask[manhattan <= 3].all()

    def test_strictly_sparser_than_full_from_radius_two(self):
        for radius in range(2, 8):
            side = 2 * radius + 1
            assert dilated_mask(radius).sum() < side * side

    def test_radius_four_matches_radius_three_cost(self):
        assert dilated_mask(4).sum() == (2 * 3 + 1) ** 2


class TestSearchGrid:
    def test_dilated_and_full_constructors(self):
        grid = SearchGrid.dilated(4)
        assert grid.active_count == 49
        assert SearchGrid.full(4).active_count == 81

    def test_center_must_stay_active(self):
        mask = np.ones((3, 3), dtype=bool)
        mask[1, 1] = False
        with pytest.raises(DataError):
            SearchGrid(1, mask)

    def test_mask_shape_checked(self):
        with pytest.raises(ShapeError):
            SearchGrid(2, np.ones((3, 3), dtype=bool))

    def test_negative_radius(self):
        with pytest.raises(ParameterError):
            SearchGrid.full(-2)

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
            correlate(np.zeros((2, 4, 4)), np.zeros((2, 4, 5)), SearchGrid.full(1))
        with pytest.raises(ShapeError):
            correlate(np.zeros((4, 4)), np.zeros((4, 4)), SearchGrid.full(1))

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
        grid = SearchGrid.dilated(2)
        vol = correlate(feat_a, feat_b, grid)
        expected = naive_correlate(feat_a, feat_b, grid.offsets, grid.active_count)
        assert np.allclose(vol.scores, expected, atol=1e-6)

    def test_full_grid_matches_oracle(self):
        rng = seeded_rng(3)
        feat_a = rng.normal(size=(3, 7, 5))
        feat_b = rng.normal(size=(3, 7, 5))
        grid = SearchGrid.full(2)
        vol = correlate(feat_a, feat_b, grid)
        expected = naive_correlate(feat_a, feat_b, grid.offsets, grid.active_count)
        assert np.allclose(vol.scores, expected, atol=1e-6)

    def test_offset_normalization_ratio(self):
        rng = seeded_rng(5)
        feat_a = rng.normal(size=(2, 9, 9))
        feat_b = rng.normal(size=(2, 9, 9))
        sparse = correlate(feat_a, feat_b, SearchGrid.dilated(4))
        dense = correlate(feat_a, feat_b, SearchGrid.full(4))
        dense_by_offset = {tuple(o): dense.scores[m] for m, o in enumerate(dense.offsets)}
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
            assert vol.radius == radius


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


class TestAveragePool:
    def test_mean_of_blocks(self):
        feat = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
        out = average_pool(feat, 2)
        assert out.shape == (1, 2, 2)
        assert out[0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)
        assert out[0, 1, 1] == pytest.approx((10 + 11 + 14 + 15) / 4)

    def test_factor_one_identity(self):
        feat = seeded_rng(13).normal(size=(2, 4, 4))
        assert np.array_equal(average_pool(feat, 1), feat)

    def test_validation(self):
        with pytest.raises(ParameterError):
            average_pool(np.zeros((1, 4, 4)), 0)
        with pytest.raises(ShapeError):
            average_pool(np.zeros((1, 5, 4)), 2)
        with pytest.raises(ShapeError):
            average_pool(np.zeros((4, 4)), 2)

import numpy as np
import pytest

from evmeshflow import (
    AttentionOperator,
    DataError,
    EventStream,
    ParameterError,
    ShapeError,
    cdc_fuse,
    confidence_fuse,
    density,
    mdc_loss,
    mds_fuse,
    mds_loss,
    seeded_rng,
    total_loss,
    upsample_flow_bilinear,
    voxelize,
)
from evmeshflow.sampling import bilinear_sample


def _uniform_attention(window, height, width):
    weights = np.full((window**2, height, width), 1.0 / window**2)
    return AttentionOperator(window, weights)


def _identity_attention(window, height, width):
    weights = np.zeros((window**2, height, width))
    weights[window**2 // 2] = 1.0  # the centre of the window
    return AttentionOperator(window, weights)


class TestAttentionOperator:
    def test_window_must_be_odd(self):
        with pytest.raises(ParameterError):
            AttentionOperator(4, np.full((16, 2, 2), 1 / 16))

    def test_weights_must_be_non_negative(self):
        weights = np.full((9, 2, 2), 1 / 9)
        weights[0, 0, 0] = -0.1
        weights[1, 0, 0] = 1 / 9 + 0.1
        with pytest.raises(DataError):
            AttentionOperator(3, weights)

    def test_weights_must_be_row_stochastic(self):
        with pytest.raises(DataError):
            AttentionOperator(3, np.full((9, 2, 2), 0.2))

    def test_identity_returns_field(self):
        rng = seeded_rng(1)
        field = rng.normal(size=(5, 6, 2))
        op = _identity_attention(3, 5, 6)
        assert np.allclose(op.apply(field), field)

    def test_uniform_window_is_local_mean_with_clamping(self):
        field = np.zeros((3, 3, 2))
        field[1, 1] = (9.0, -9.0)
        op = _uniform_attention(3, 3, 3)
        out = op.apply(field)
        assert out[1, 1, 0] == pytest.approx(1.0)
        # Corner windows clamp out-of-image neighbors to the edge; the
        # center pixel is sampled once in the corner's 3x3 stencil.
        assert out[0, 0, 0] == pytest.approx(1.0)

    def test_constant_field_preserved(self):
        field = np.full((4, 4, 2), 2.5)
        op = _uniform_attention(3, 4, 4)
        assert np.allclose(op.apply(field), 2.5)

    def test_field_size_checked(self):
        op = _uniform_attention(3, 4, 4)
        with pytest.raises(ShapeError):
            op.apply(np.zeros((5, 5, 2)))


class TestCdcFuse:
    def test_identity_configuration(self):
        rng = seeded_rng(2)
        flow = rng.normal(size=(4, 4, 2))
        op = _identity_attention(3, 4, 4)
        for alpha in (0.0, 0.3, 1.0):
            out = cdc_fuse(flow, np.zeros_like(flow), op, alpha=alpha)
            assert np.allclose(out, flow)

    def test_alpha_one_is_pure_warp(self):
        rng = seeded_rng(3)
        flow = rng.normal(size=(5, 5, 2))
        delta = np.zeros_like(flow)
        delta[..., 0] = 1.0
        op = _uniform_attention(3, 5, 5)
        out = cdc_fuse(flow, delta, op, alpha=1.0)
        assert np.allclose(out[:, :-1], flow[:, 1:])

    def test_alpha_point_six_matches_formula_oracle(self):
        rng = seeded_rng(4)
        flow = rng.normal(size=(4, 4, 2))
        delta = rng.uniform(-1, 1, size=(4, 4, 2))
        op = _uniform_attention(3, 4, 4)
        out = cdc_fuse(flow, delta, op, alpha=0.6)
        gy, gx = np.mgrid[0:4, 0:4].astype(np.float64)
        warped = np.stack(
            [
                bilinear_sample(flow[..., c], gx + delta[..., 0], gy + delta[..., 1])
                for c in (0, 1)
            ],
            axis=-1,
        )
        expected = 0.6 * warped + 0.4 * op.apply(flow)
        assert np.allclose(out, expected, atol=1e-6)

    def test_constant_field_preserved_for_any_alpha(self):
        flow = np.full((4, 4, 2), -1.25)
        op = _uniform_attention(5, 4, 4)
        for alpha in (0.0, 0.6, 1.0):
            out = cdc_fuse(flow, np.zeros_like(flow), op, alpha=alpha)
            assert np.allclose(out, -1.25)

    def test_parameter_validation(self):
        flow = np.zeros((4, 4, 2))
        op = _identity_attention(3, 4, 4)
        with pytest.raises(ParameterError):
            cdc_fuse(flow, flow, op, alpha=1.5)
        with pytest.raises(ShapeError):
            cdc_fuse(flow, np.zeros((5, 5, 2)), op)


class TestConfidenceFuse:
    def _fields(self):
        rng = seeded_rng(6)
        return rng.normal(size=(4, 4, 2)), rng.normal(size=(4, 4, 2))

    def test_full_confidence_returns_first(self):
        a, b = self._fields()
        assert np.array_equal(confidence_fuse(a, b, np.ones((4, 4))), a)

    def test_zero_confidence_returns_second(self):
        a, b = self._fields()
        assert np.array_equal(confidence_fuse(a, b, np.zeros((4, 4))), b)

    def test_half_confidence_is_midpoint(self):
        a, b = self._fields()
        out = confidence_fuse(a, b, np.full((4, 4), 0.5))
        assert np.allclose(out, 0.5 * (a + b))

    def test_out_of_range_confidence_rejected(self):
        a, b = self._fields()
        with pytest.raises(DataError):
            confidence_fuse(a, b, np.full((4, 4), 1.2))
        with pytest.raises(DataError):
            confidence_fuse(a, b, np.full((4, 4), -0.1))

    def test_output_within_componentwise_interval(self):
        a, b = self._fields()
        conf = seeded_rng(7).uniform(0, 1, size=(4, 4))
        out = confidence_fuse(a, b, conf)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        assert np.all(out >= lo - 1e-12)
        assert np.all(out <= hi + 1e-12)


class TestUpsampleFlowBilinear:
    def test_factor_one_identity(self):
        flow = seeded_rng(8).normal(size=(4, 4, 2))
        assert np.allclose(upsample_flow_bilinear(flow, 1), flow)

    def test_constant_flow_scales_magnitude(self):
        flow = np.full((4, 4, 2), 1.5)
        out = upsample_flow_bilinear(flow, 2)
        assert out.shape == (8, 8, 2)
        assert np.allclose(out, 3.0)

    def test_zero_flow_stays_zero(self):
        out = upsample_flow_bilinear(np.zeros((3, 5, 2)), 4)
        assert out.shape == (12, 20, 2)
        assert not out.any()

    def test_factor_validation(self):
        with pytest.raises(ParameterError):
            upsample_flow_bilinear(np.zeros((3, 3, 2)), 0)


class TestMdcLoss:
    def test_zero_residual_floor(self):
        grids = [np.ones((2, 2)), np.ones((3, 3)), np.ones((4, 4))]
        assert mdc_loss(grids, grids) == pytest.approx(0.003)

    def test_hand_arithmetic_with_zero_xi(self):
        preds = [np.array([0.003]), np.array([0.004]), np.array([0.0])]
        gts = [np.array([0.0]), np.array([0.0]), np.array([0.0])]
        assert mdc_loss(preds, gts, xi=0.0) == pytest.approx(0.007)

    def test_symmetric(self):
        rng = seeded_rng(9)
        a = [rng.normal(size=(3, 3)) for _ in range(3)]
        b = [rng.normal(size=(3, 3)) for _ in range(3)]
        assert mdc_loss(a, b) == pytest.approx(mdc_loss(b, a))

    def test_floor_is_strict_for_nonzero_residual(self):
        gts = [np.zeros((2, 2))] * 3
        preds = [np.zeros((2, 2)), np.zeros((2, 2)), np.full((2, 2), 0.01)]
        assert mdc_loss(preds, gts) > 0.003

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mdc_loss([np.zeros((2, 2))], [np.zeros((3, 3))])
        with pytest.raises(ShapeError):
            mdc_loss([], [])


class TestMdsLoss:
    def test_equal_grids(self):
        grid = seeded_rng(10).normal(size=(5, 4, 4))
        assert mds_loss(grid, grid) == 0.0

    def test_pinned_density_difference(self):
        a = np.zeros((1, 2, 2))
        a[0, 0, 0] = a[0, 0, 1] = a[0, 1, 0] = 1.0  # density 0.75
        b = np.zeros((1, 2, 2))
        b[0, 0, 0] = b[0, 1, 1] = 1.0  # density 0.50
        assert mds_loss(a, b) == pytest.approx(0.25)

    def test_symmetric(self):
        rng = seeded_rng(11)
        a = rng.normal(size=(3, 4, 4))
        b = rng.normal(size=(3, 4, 4))
        assert mds_loss(a, b) == mds_loss(b, a)


class TestTotalLoss:
    def test_flow_only(self):
        assert total_loss(0.0, 0.0, 1.75) == 1.75

    def test_default_weights(self):
        assert total_loss(1.0, 1.0, 0.0) == pytest.approx(10.1)

    def test_linear_superposition(self):
        base = total_loss(0.2, 0.3, 0.4)
        doubled = total_loss(0.4, 0.6, 0.8)
        assert doubled == pytest.approx(2 * base)

    def test_negative_weights_rejected(self):
        with pytest.raises(ParameterError):
            total_loss(1.0, 1.0, 1.0, lambda_mdc=-1.0)


class TestMdsFuse:
    def _grids(self):
        rng = seeded_rng(12)
        return rng.normal(size=(5, 4, 4)), rng.normal(size=(5, 4, 4))

    def test_saturated_logits_select_first(self):
        a, b = self._grids()
        logits = np.zeros((2, 4, 4))
        logits[0] = 50.0
        logits[1] = -50.0
        assert np.allclose(mds_fuse(a, b, logits), a, atol=1e-6)

    def test_equal_logits_average(self):
        a, b = self._grids()
        out = mds_fuse(a, b, np.zeros((2, 4, 4)))
        assert np.allclose(out, 0.5 * (a + b))

    def test_matches_convex_combination_oracle(self):
        a, b = self._grids()
        logits = seeded_rng(13).normal(size=(2, 4, 4))
        out = mds_fuse(a, b, logits)
        w = np.exp(logits) / np.exp(logits).sum(axis=0, keepdims=True)
        expected = w[0][None] * a + w[1][None] * b
        assert np.allclose(out, expected, atol=1e-6)

    def test_extreme_logits_stay_finite(self):
        a, b = self._grids()
        logits = np.zeros((2, 4, 4))
        logits[0] = 1e4
        out = mds_fuse(a, b, logits)
        assert np.isfinite(out).all()
        assert np.allclose(out, a)

    def test_constant_weights_bound_density(self):
        x = np.zeros(6, dtype=np.int64)
        t = np.arange(6, dtype=np.int64)
        dense = voxelize(
            EventStream(np.arange(6) % 4, np.arange(6) % 4, t, np.ones(6, dtype=np.int8), 4, 4, 0, 5),
            3,
        )
        sparse = voxelize(
            EventStream(x[:2], x[:2], t[:2], np.ones(2, dtype=np.int8), 4, 4, 0, 1),
            3,
        )
        fused = mds_fuse(dense, sparse, np.zeros((2, 4, 4)))
        d = density(fused)
        lo = min(density(dense), density(sparse))
        hi = max(density(dense), density(sparse))
        assert lo - 1e-12 <= d <= hi + 1e-12

    def test_shape_validation(self):
        a, b = self._grids()
        with pytest.raises(ShapeError):
            mds_fuse(a, b[:, :3], np.zeros((2, 4, 4)))
        with pytest.raises(ShapeError):
            mds_fuse(a, b, np.zeros((3, 4, 4)))

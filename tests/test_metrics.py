import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmeshflow import (
    DataError,
    ShapeError,
    angular_error,
    epe,
    npe,
    outlier_pct,
    seeded_rng,
)


def _flow(h, w, u, v):
    flow = np.empty((h, w, 2))
    flow[..., 0] = u
    flow[..., 1] = v
    return flow


def _random_pair(seed, h=6, w=6):
    rng = seeded_rng(seed)
    return rng.normal(size=(h, w, 2)), rng.normal(size=(h, w, 2))


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            epe(np.zeros((4, 4, 2)), np.zeros((4, 5, 2)))

    def test_flow_must_be_two_channel(self):
        with pytest.raises(ShapeError):
            epe(np.zeros((4, 4, 3)), np.zeros((4, 4, 3)))

    def test_negative_npe_threshold(self):
        with pytest.raises(DataError):
            npe(np.zeros((4, 4, 2)), np.zeros((4, 4, 2)), -1.0)


class TestEpe:
    def test_exact_prediction(self):
        gt = _flow(4, 4, 2.0, -1.0)
        assert epe(gt, gt) == 0.0

    def test_pythagorean_offset(self):
        gt = _flow(4, 4, 1.0, 1.0)
        pred = gt + np.array([3.0, 4.0])
        assert epe(pred, gt) == pytest.approx(5.0)

    def test_half_offset_mean(self):
        gt = _flow(4, 4, 0.0, 0.0)
        pred = gt.copy()
        pred[:2, :, 1] = 2.0  # half the rows offset by (0, 2)
        assert epe(pred, gt) == pytest.approx(1.0)

    def test_symmetric_in_arguments(self):
        pred, gt = _random_pair(1)
        assert epe(pred, gt) == pytest.approx(epe(gt, pred))

    def test_shift_invariance(self):
        pred, gt = _random_pair(2)
        shift = np.array([5.0, -3.0])
        assert epe(pred + shift, gt + shift) == pytest.approx(epe(pred, gt))


class TestNpe:
    def test_exact_prediction(self):
        gt = _flow(4, 4, 1.0, 2.0)
        assert npe(gt, gt, 1.0) == 0.0

    def test_uniform_error_thresholds(self):
        gt = _flow(4, 4, 0.0, 0.0)
        pred = _flow(4, 4, 2.5, 0.0)
        assert npe(pred, gt, 2.0) == 100.0
        assert npe(pred, gt, 3.0) == 0.0

    def test_threshold_is_strict(self):
        gt = _flow(4, 4, 0.0, 0.0)
        pred = _flow(4, 4, 2.0, 0.0)
        assert npe(pred, gt, 2.0) == 0.0

    def test_quarter_outliers(self):
        gt = _flow(4, 4, 0.0, 0.0)
        pred = gt.copy()
        pred[:2, :2, 0] = 10.0
        assert npe(pred, gt, 3.0) == pytest.approx(25.0)

    def test_monotone_in_threshold(self):
        pred, gt = _random_pair(3)
        values = [npe(pred, gt, n) for n in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values, reverse=True)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.floats(0, 10))
    def test_bounded(self, seed, n):
        pred, gt = _random_pair(seed)
        assert 0.0 <= npe(pred, gt, n) <= 100.0


class TestAngularError:
    def test_exact_prediction(self):
        pred, _ = _random_pair(4)
        assert angular_error(pred, pred) == pytest.approx(0.0, abs=1e-6)

    def test_unit_perpendicular_vectors(self):
        gt = _flow(4, 4, 1.0, 0.0)
        pred = _flow(4, 4, 0.0, 1.0)
        assert angular_error(pred, gt) == pytest.approx(60.0)

    def test_not_scale_invariant(self):
        gt = _flow(4, 4, 1.0, 0.0)
        pred = _flow(4, 4, 0.0, 1.0)
        scaled = angular_error(10.0 * pred, 10.0 * gt)
        assert scaled != pytest.approx(60.0)

    def test_zero_flow_pair_is_zero(self):
        zero = np.zeros((4, 4, 2))
        assert angular_error(zero, zero) == 0.0

    def test_clamping_keeps_result_finite(self):
        gt = _flow(4, 4, 1e8, 0.0)
        pred = _flow(4, 4, -1e8, 0.0)
        value = angular_error(pred, gt)
        assert np.isfinite(value)
        assert 0.0 <= value <= 180.0


class TestOutlierPct:
    def test_exact_prediction(self):
        gt = _flow(4, 4, 7.0, 0.0)
        assert outlier_pct(gt, gt) == 0.0

    def test_absolute_rule_fires(self):
        gt = _flow(4, 4, 100.0, 0.0)
        pred = gt + np.array([4.0, 0.0])
        assert outlier_pct(pred, gt) == 100.0
        one = gt.copy()
        one[0, 0, 0] += 50.0
        assert outlier_pct(one, gt) == pytest.approx(100.0 / 16.0)

    def test_small_error_on_large_flow_ok(self):
        gt = _flow(4, 4, 100.0, 0.0)
        pred = gt + np.array([2.0, 0.0])
        assert outlier_pct(pred, gt) == 0.0

    def test_relative_rule_fires_below_absolute(self):
        # Error 1 px on gt magnitude 10: 1 <= 3 but 1 > 0.5 = 5% of 10.
        gt = _flow(4, 4, 10.0, 0.0)
        pred = gt + np.array([1.0, 0.0])
        assert outlier_pct(pred, gt) == 100.0

    def test_shift_invariance_needs_matching_gt_norm(self):
        # epe/npe shift-invariance holds; outlier_pct depends on gt norm,
        # so only assert the epe-style invariance for identical gt.
        pred, gt = _random_pair(5)
        shift = np.array([2.0, 2.0])
        assert epe(pred + shift, gt + shift) == pytest.approx(epe(pred, gt))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_bounded(self, seed):
        pred, gt = _random_pair(seed)
        assert 0.0 <= outlier_pct(pred, gt) <= 100.0

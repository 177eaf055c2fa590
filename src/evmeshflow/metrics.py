"""Flow evaluation metrics: endpoint, threshold, angular, and outlier rates."""

import numpy as np

from .errors import DataError, _check_flow


def _check_pair(pred: np.ndarray, gt: np.ndarray):
    pred = _check_flow(pred, "predicted flow")
    gt = _check_flow(gt, "ground-truth flow", pred.shape[:2])
    return pred, gt


def _errors(pred, gt):
    diff = pred - gt
    return np.hypot(diff[..., 0], diff[..., 1])


def epe(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean Euclidean endpoint error over all pixels."""
    pred, gt = _check_pair(pred, gt)
    return float(_errors(pred, gt).mean())


def npe(pred: np.ndarray, gt: np.ndarray, n: float) -> float:
    """Percentage of pixels with endpoint error strictly above n px."""
    if not n >= 0:
        raise DataError("npe threshold must be >= 0")
    pred, gt = _check_pair(pred, gt)
    return float(100.0 * (_errors(pred, gt) > n).mean())


def angular_error(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean angle in degrees between homogeneous (u, v, 1) flow vectors.

    The unit third component keeps the measure finite for zero flow; the
    cosine is clamped to [-1, 1] before the arccos.
    """
    pred, gt = _check_pair(pred, gt)
    pu, pv = pred[..., 0], pred[..., 1]
    gu, gv = gt[..., 0], gt[..., 1]
    dot = pu * gu + pv * gv + 1.0
    norms = np.sqrt(pu * pu + pv * pv + 1.0) * np.sqrt(gu * gu + gv * gv + 1.0)
    cos = np.clip(dot / norms, -1.0, 1.0)
    return float(np.degrees(np.arccos(cos)).mean())


def outlier_pct(pred: np.ndarray, gt: np.ndarray) -> float:
    """Percentage of pixels whose error exceeds 3 px or 5% of the gt norm."""
    pred, gt = _check_pair(pred, gt)
    err = _errors(pred, gt)
    gt_mag = np.hypot(gt[..., 0], gt[..., 1])
    bad = (err > 3.0) | (err > 0.05 * gt_mag)
    return float(100.0 * bad.mean())

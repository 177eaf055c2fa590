"""Flow evaluation metrics: endpoint, threshold, angular, and outlier rates."""

import numpy as np

from .errors import DataError, ShapeError, _check_flow


def _check_pair(pred: np.ndarray, gt: np.ndarray, mask=None):
    pred = _check_flow(pred, "predicted flow")
    gt = _check_flow(gt, "ground-truth flow", pred.shape[:2])
    if mask is None:
        mask = np.ones(pred.shape[:2], dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != pred.shape[:2]:
            raise ShapeError("mask shape must be (H, W) matching the flow")
    if not mask.any():
        raise DataError("evaluation mask selects no pixels")
    return pred, gt, mask


def _errors(pred, gt, mask):
    diff = pred - gt
    return np.hypot(diff[..., 0], diff[..., 1])[mask]


def epe(pred: np.ndarray, gt: np.ndarray, mask=None) -> float:
    """Mean Euclidean endpoint error over valid pixels."""
    pred, gt, mask = _check_pair(pred, gt, mask)
    return float(_errors(pred, gt, mask).mean())


def npe(pred: np.ndarray, gt: np.ndarray, n: float, mask=None) -> float:
    """Percentage of valid pixels with endpoint error strictly above n px."""
    if n < 0:
        raise DataError("npe threshold must be >= 0")
    pred, gt, mask = _check_pair(pred, gt, mask)
    return float(100.0 * (_errors(pred, gt, mask) > n).mean())


def angular_error(pred: np.ndarray, gt: np.ndarray, mask=None) -> float:
    """Mean angle in degrees between homogeneous (u, v, 1) flow vectors.

    The unit third component keeps the measure finite for zero flow; the
    cosine is clamped to [-1, 1] before the arccos.
    """
    pred, gt, mask = _check_pair(pred, gt, mask)
    pu, pv = pred[..., 0][mask], pred[..., 1][mask]
    gu, gv = gt[..., 0][mask], gt[..., 1][mask]
    dot = pu * gu + pv * gv + 1.0
    norms = np.sqrt(pu * pu + pv * pv + 1.0) * np.sqrt(gu * gu + gv * gv + 1.0)
    cos = np.clip(dot / norms, -1.0, 1.0)
    return float(np.degrees(np.arccos(cos)).mean())


def outlier_pct(pred: np.ndarray, gt: np.ndarray, mask=None) -> float:
    """Percentage of pixels whose error exceeds 3 px or 5% of the gt norm."""
    pred, gt, mask = _check_pair(pred, gt, mask)
    err = _errors(pred, gt, mask)
    gt_mag = np.hypot(gt[..., 0], gt[..., 1])[mask]
    bad = (err > 3.0) | (err > 0.05 * gt_mag)
    return float(100.0 * bad.mean())

"""Flow upsampling with content-guided correction and fusion losses.

The flow decoder path combines three ingredients: a bilinearly upsampled
coarse flow, a correction that re-samples it where a residual field
points, and a local attention smoothing; a confidence map then arbitrates
between the corrected and the plain field per pixel.  The training-side
losses compare multi-scale voxel predictions (Charbonnier), match grid
densities, and combine both with a flow term under fixed weights.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .sampling import bilinear_sample
from .voxel import density

DEFAULT_ALPHA = 0.6
DEFAULT_XI = 1e-3
DEFAULT_LAMBDA_MDC = 0.1
DEFAULT_LAMBDA_MDS = 10.0


def _check_field(field: np.ndarray, name: str = "flow") -> np.ndarray:
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 3 or field.shape[2] != 2:
        raise ShapeError(f"expected (H, W, 2) {name}, got {field.shape}")
    return field


@dataclass
class AttentionOperator:
    """Per-pixel row-stochastic weights over a K x K neighborhood.

    weights[slot, y, x] is the coefficient of the neighbor at offset
    (dy, dx) = divmod(slot, K) - K//2 when averaging around pixel (y, x).
    Out-of-image neighbors clamp to the nearest edge pixel, which keeps
    constant fields exactly constant.
    """

    window: int
    weights: np.ndarray

    def __post_init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise ParameterError("attention window must be odd and >= 1")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 3 or self.weights.shape[0] != self.window**2:
            raise ShapeError(
                f"expected (K*K, H, W) weights, got {self.weights.shape}"
            )
        if np.any(self.weights < 0.0):
            raise DataError("attention weights must be non-negative")
        sums = self.weights.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > 1e-6):
            raise DataError("attention weights must sum to 1 per pixel")

    @classmethod
    def identity(cls, window: int, height: int, width: int) -> "AttentionOperator":
        weights = np.zeros((window**2, height, width))
        center = (window // 2) * window + window // 2
        weights[center] = 1.0
        return cls(window, weights)

    def apply(self, field: np.ndarray) -> np.ndarray:
        field = _check_field(field)
        height, width = field.shape[:2]
        if self.weights.shape[1:] != (height, width):
            raise ShapeError("attention weights do not match the field size")
        half = self.window // 2
        out = np.zeros_like(field)
        ys = np.arange(height)
        xs = np.arange(width)
        for slot in range(self.window**2):
            w = self.weights[slot]
            if not w.any():
                continue
            dy = slot // self.window - half
            dx = slot % self.window - half
            yy = np.clip(ys + dy, 0, height - 1)
            xx = np.clip(xs + dx, 0, width - 1)
            out += w[..., None] * field[yy[:, None], xx[None, :]]
        return out


def cdc_fuse(
    flow_bar: np.ndarray,
    delta: np.ndarray,
    attention: AttentionOperator,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """Blend a displaced copy of the flow with its attention average.

    The correction re-samples flow_bar at u + delta(u); the result is
    alpha * corrected + (1 - alpha) * attention(flow_bar).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError("alpha must lie in [0, 1]")
    flow_bar = _check_field(flow_bar)
    delta = _check_field(delta, "delta")
    if delta.shape != flow_bar.shape:
        raise ShapeError("delta shape must match flow_bar")
    height, width = flow_bar.shape[:2]
    gy, gx = np.mgrid[0:height, 0:width].astype(np.float64)
    sx = gx + delta[..., 0]
    sy = gy + delta[..., 1]
    corrected = np.stack(
        [bilinear_sample(flow_bar[..., c], sx, sy) for c in (0, 1)], axis=-1
    )
    return alpha * corrected + (1.0 - alpha) * attention.apply(flow_bar)


def confidence_fuse(
    flow_bar: np.ndarray, flow_tilde: np.ndarray, confidence: np.ndarray
) -> np.ndarray:
    """Per-pixel convex blend: conf * flow_bar + (1 - conf) * flow_tilde."""
    flow_bar = _check_field(flow_bar)
    flow_tilde = _check_field(flow_tilde, "corrected flow")
    if flow_tilde.shape != flow_bar.shape:
        raise ShapeError("flow fields must share a shape")
    confidence = np.asarray(confidence, dtype=np.float64)
    if confidence.shape != flow_bar.shape[:2]:
        raise ShapeError("confidence must be (H, W) matching the flow")
    if np.any(confidence < 0.0) or np.any(confidence > 1.0):
        raise DataError("confidence values must lie in [0, 1]")
    c = confidence[..., None]
    return c * flow_bar + (1.0 - c) * flow_tilde


def upsample_flow_bilinear(flow: np.ndarray, factor: int) -> np.ndarray:
    """Upsample a flow field by an integer factor, scaling magnitudes.

    Output pixel centers map to input coordinates with the half-pixel
    convention; displacement vectors multiply by the factor so they stay
    meaningful at the finer resolution.
    """
    flow = _check_field(flow)
    if factor < 1:
        raise ParameterError("factor must be >= 1")
    height, width = flow.shape[:2]
    xs = (np.arange(width * factor) + 0.5) / factor - 0.5
    ys = (np.arange(height * factor) + 0.5) / factor - 0.5
    gx, gy = np.meshgrid(xs, ys)
    comps = [bilinear_sample(flow[..., c], gx, gy) * factor for c in (0, 1)]
    return np.stack(comps, axis=-1)


def _check_grid(grid: np.ndarray, name: str) -> np.ndarray:
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 3:
        raise ShapeError(f"expected (B, H, W) {name}, got {grid.shape}")
    return grid


def mdc_loss(preds, gts, xi: float = DEFAULT_XI) -> float:
    """Sum over scales of the mean Charbonnier distance sqrt(d^2 + xi^2)."""
    if xi < 0.0:
        raise ParameterError("xi must be >= 0")
    if len(preds) != len(gts) or not preds:
        raise ShapeError("predictions and targets must pair up non-empty")
    total = 0.0
    for pred, gt in zip(preds, gts):
        pred = np.asarray(pred, dtype=np.float64)
        gt = np.asarray(gt, dtype=np.float64)
        if pred.shape != gt.shape:
            raise ShapeError("scale shapes differ between prediction and target")
        total += float(np.mean(np.sqrt((pred - gt) ** 2 + xi * xi)))
    return total


def mds_loss(grid_a: np.ndarray, grid_b: np.ndarray) -> float:
    """Absolute difference of the two grids' event densities."""
    grid_a = _check_grid(grid_a, "grid")
    grid_b = _check_grid(grid_b, "grid")
    return abs(density(grid_a) - density(grid_b))


def total_loss(
    mdc: float,
    mds: float,
    flow_term: float,
    lambda_mdc: float = DEFAULT_LAMBDA_MDC,
    lambda_mds: float = DEFAULT_LAMBDA_MDS,
) -> float:
    """Weighted sum lambda_mdc * mdc + lambda_mds * mds + flow_term."""
    if lambda_mdc < 0.0 or lambda_mds < 0.0:
        raise ParameterError("loss weights must be >= 0")
    return lambda_mdc * mdc + lambda_mds * mds + flow_term


def mds_fuse(
    grid_mdc: np.ndarray, grid_plain: np.ndarray, logits: np.ndarray
) -> np.ndarray:
    """Per-pixel softmax blend of two voxel grids, broadcast over bins."""
    grid_mdc = _check_grid(grid_mdc, "grid")
    grid_plain = _check_grid(grid_plain, "grid")
    if grid_mdc.shape != grid_plain.shape:
        raise ShapeError("voxel grids must share a shape")
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape != (2,) + grid_mdc.shape[1:]:
        raise ShapeError(
            f"expected (2, H, W) logits, got {logits.shape} for {grid_mdc.shape}"
        )
    shifted = logits - logits.max(axis=0, keepdims=True)
    expd = np.exp(shifted)
    weights = expd / expd.sum(axis=0, keepdims=True)
    return weights[0][None] * grid_mdc + weights[1][None] * grid_plain

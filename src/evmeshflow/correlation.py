"""Dilated feature correlation volumes.

The search window of radius r keeps the center and drops every offset
whose Manhattan length is an even number 2k with k in [2, r].  For r = 4
this leaves 49 of 81 offsets: the reach of a radius-4 window at the match
cost of radius 3.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .sampling import bilinear_sample


def dilated_mask(radius: int) -> np.ndarray:
    """Boolean (2r+1, 2r+1) mask of active search offsets."""
    if radius < 0:
        raise ParameterError("radius must be >= 0")
    span = np.arange(-radius, radius + 1)
    manhattan = np.abs(span)[:, None] + np.abs(span)[None, :]
    mask = np.ones(manhattan.shape, dtype=bool)
    for k in range(2, radius + 1):
        mask &= manhattan != 2 * k
    return mask


@dataclass
class SearchGrid:
    """A search radius plus the boolean mask of offsets to correlate."""

    radius: int
    mask: np.ndarray

    def __post_init__(self):
        if self.radius < 0:
            raise ParameterError("radius must be >= 0")
        self.mask = np.asarray(self.mask, dtype=bool)
        side = 2 * self.radius + 1
        if self.mask.shape != (side, side):
            raise ShapeError(f"mask must be ({side}, {side}) for radius {self.radius}")
        if not self.mask[self.radius, self.radius]:
            raise DataError("the center offset must stay active")

    @classmethod
    def dilated(cls, radius: int) -> "SearchGrid":
        return cls(radius, dilated_mask(radius))

    @classmethod
    def full(cls, radius: int) -> "SearchGrid":
        if radius < 0:
            raise ParameterError("radius must be >= 0")
        side = 2 * radius + 1
        return cls(radius, np.ones((side, side), dtype=bool))

    @property
    def offsets(self) -> np.ndarray:
        """Active (dx, dy) pairs in row-major mask order, shape (M, 2)."""
        dy, dx = np.nonzero(self.mask)
        return np.stack([dx - self.radius, dy - self.radius], axis=1)

    @property
    def active_count(self) -> int:
        return int(self.mask.sum())


@dataclass
class CostVolume:
    """Correlation scores per active offset, shape (M, H, W)."""

    scores: np.ndarray
    offsets: np.ndarray  # (M, 2) as (dx, dy)
    radius: int


def _check_features(feat_a: np.ndarray, feat_b: np.ndarray):
    feat_a = np.asarray(feat_a, dtype=np.float64)
    feat_b = np.asarray(feat_b, dtype=np.float64)
    if feat_a.ndim != 3 or feat_b.ndim != 3:
        raise ShapeError("features must have shape (C, H, W)")
    if feat_a.shape != feat_b.shape:
        raise ShapeError(
            f"feature shapes differ: {feat_a.shape} vs {feat_b.shape}"
        )
    return feat_a, feat_b


def correlate(
    feat_a: np.ndarray,
    feat_b: np.ndarray,
    grid: SearchGrid,
) -> CostVolume:
    """Inner products of feat_a(u) with feat_b(u + d) over active offsets.

    Out-of-bounds samples of feat_b act as zero features.  Scores divide
    by the number of active offsets.
    """
    feat_a, feat_b = _check_features(feat_a, feat_b)
    _, height, width = feat_a.shape
    offsets = grid.offsets
    denom = float(len(offsets))
    scores = np.zeros((len(offsets), height, width))
    for m, (dx, dy) in enumerate(offsets):
        ay_lo, ay_hi = max(0, -dy), min(height, height - dy)
        ax_lo, ax_hi = max(0, -dx), min(width, width - dx)
        if ay_lo >= ay_hi or ax_lo >= ax_hi:
            continue
        a = feat_a[:, ay_lo:ay_hi, ax_lo:ax_hi]
        b = feat_b[:, ay_lo + dy : ay_hi + dy, ax_lo + dx : ax_hi + dx]
        scores[m, ay_lo:ay_hi, ax_lo:ax_hi] = (a * b).sum(axis=0) / denom
    return CostVolume(scores, offsets, grid.radius)


def warp_features(features: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Backward-warp every channel by the flow, clamping at the borders."""
    features = np.asarray(features, dtype=np.float64)
    flow = np.asarray(flow, dtype=np.float64)
    if features.ndim != 3:
        raise ShapeError("features must have shape (C, H, W)")
    if flow.shape != features.shape[1:] + (2,):
        raise ShapeError("flow shape must be (H, W, 2) matching the features")
    height, width = features.shape[1:]
    gy, gx = np.mgrid[0:height, 0:width].astype(np.float64)
    return bilinear_sample(features, gx + flow[..., 0], gy + flow[..., 1])


def average_pool(features: np.ndarray, factor: int) -> np.ndarray:
    """Mean-pool (C, H, W) features by an integer factor per axis."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3:
        raise ShapeError("features must have shape (C, H, W)")
    if factor < 1:
        raise ParameterError("pool factor must be >= 1")
    channels, height, width = features.shape
    if height % factor or width % factor:
        raise ShapeError("feature dimensions must divide the pool factor")
    view = features.reshape(
        channels, height // factor, factor, width // factor, factor
    )
    return view.mean(axis=(2, 4))

"""Dilated feature correlation volumes.

The search window of radius r keeps the center and drops every offset
whose Manhattan length is an even number 2k with k in [2, r].  For r = 4
this leaves 49 of 81 offsets: the reach of a radius-4 window at the match
cost of radius 3.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ShapeError, _check_flow, _check_int, _check_stack
from .sampling import bilinear_sample

# Bytes of both feature stacks that one row tile of correlate spans.  On a
# 2-vCPU Xeon with 4 MiB L2 per core, C = 32 at 256x256, r = 4 took 153, 135,
# 121, 115, 125 and 185 ms at 1, 2, 4, 8, 16 MiB and untiled.
_TILE_BYTES = 8 << 20


def dilated_mask(radius: int) -> np.ndarray:
    """Boolean (2r+1, 2r+1) mask of active search offsets."""
    radius = _check_int(radius, "radius", 0)
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
        self.radius = _check_int(self.radius, "radius", 0)
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
        side = 2 * _check_int(radius, "radius", 0) + 1
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


def correlate(
    feat_a: np.ndarray,
    feat_b: np.ndarray,
    grid: SearchGrid,
) -> CostVolume:
    """Inner products of feat_a(u) with feat_b(u + d) over active offsets.

    Out-of-bounds samples of feat_b act as zero features.  Scores divide
    by the number of active offsets.  Rows are visited in tiles of about
    _TILE_BYTES of both stacks, every offset per tile, so a large stack
    streams through memory once rather than once per offset; a stack that
    fits the budget is a single tile.
    """
    feat_a = _check_stack(feat_a, "features")
    feat_b = _check_stack(feat_b, "second features", feat_a.shape)
    channels, height, width = feat_a.shape
    offsets = grid.offsets
    denom = float(len(offsets))
    scores = np.zeros((len(offsets), height, width))
    rows = max(1, _TILE_BYTES // (2 * feat_a.itemsize * channels * width))
    for y0 in range(0, height, rows):
        y1 = min(height, y0 + rows)
        for m, (dx, dy) in enumerate(offsets):
            ay_lo, ay_hi = max(y0, -dy), min(y1, height - dy)
            ax_lo, ax_hi = max(0, -dx), min(width, width - dx)
            if ay_lo >= ay_hi or ax_lo >= ax_hi:
                continue
            a = feat_a[:, ay_lo:ay_hi, ax_lo:ax_hi]
            b = feat_b[:, ay_lo + dy : ay_hi + dy, ax_lo + dx : ax_hi + dx]
            # einsum sums a[c] * b[c] per pixel in channel order from 0.0,
            # like naive_correlate, without a (C, H', W') product temporary.
            scores[m, ay_lo:ay_hi, ax_lo:ax_hi] = np.einsum("chw,chw->hw", a, b) / denom
    return CostVolume(scores, offsets, grid.radius)


def warp_features(features: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Backward-warp every channel by the flow, clamping at the borders."""
    features = _check_stack(features, "features")
    flow = _check_flow(flow, size=features.shape[1:])
    height, width = features.shape[1:]
    gy, gx = np.mgrid[0:height, 0:width].astype(np.float64)
    return bilinear_sample(features, gx + flow[..., 0], gy + flow[..., 1])


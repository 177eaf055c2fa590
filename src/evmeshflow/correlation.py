"""Dilated feature correlation volumes.

The search window of radius r keeps the offset (dx, dy), |dx|, |dy| <= r,
when its Manhattan length |dx| + |dy| is odd or at most 2, so every even
length from 4 up is dropped.  For r = 4 this leaves 49 of 81 offsets: the
reach of a radius-4 window at the match cost of radius 3.
"""

from dataclasses import dataclass

import numpy as np

from .errors import _check_flow, _check_int, _check_stack
from .sampling import _pixel_axes, bilinear_sample

# Bytes of both feature stacks that one row tile of correlate spans.  On a
# 2-vCPU Xeon with 4 MiB L2 per core, C = 32 at 256x256, r = 4 took 153, 135,
# 121, 115, 125 and 185 ms at 1, 2, 4, 8, 16 MiB and untiled.
_TILE_BYTES = 8 << 20


def _dilated_offsets(radius: int) -> np.ndarray:
    """The window's (dx, dy) offsets, rows of dy then dx ascending, shape (M, 2)."""
    span = np.arange(-radius, radius + 1)
    dy, dx = np.meshgrid(span, span, indexing="ij")
    manhattan = np.abs(dx) + np.abs(dy)
    keep = (manhattan % 2 == 1) | (manhattan <= 2)
    return np.stack([dx[keep], dy[keep]], axis=1)


@dataclass(frozen=True)
class SearchGrid:
    """The dilated search window of a radius >= 0."""

    radius: int

    def __post_init__(self):
        object.__setattr__(self, "radius", _check_int(self.radius, "radius", 0))

    @classmethod
    def dilated(cls, radius: int) -> "SearchGrid":
        return cls(radius)

    @property
    def offsets(self) -> np.ndarray:
        return _dilated_offsets(self.radius)

    @property
    def active_count(self) -> int:
        return len(self.offsets)


@dataclass
class CostVolume:
    """Correlation scores per window offset, shape (M, H, W)."""

    scores: np.ndarray
    offsets: np.ndarray  # (M, 2) as (dx, dy)


def correlate(
    feat_a: np.ndarray,
    feat_b: np.ndarray,
    grid: SearchGrid,
) -> CostVolume:
    """Inner products of feat_a(u) with feat_b(u + d) over the window's offsets.

    Out-of-bounds samples of feat_b act as zero features.  Scores divide
    by the number of offsets.  Rows are visited in tiles of about
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
            # like naive_correlate, without a (C, H', W') product temporary;
            # on a lone pixel it sums pairwise, so cumsum keeps the order.
            if a[0].size > 1:
                dot = np.einsum("chw,chw->hw", a, b)
            else:
                dot = np.cumsum(np.append(0.0, a * b))[-1]
            scores[m, ay_lo:ay_hi, ax_lo:ax_hi] = dot / denom
    return CostVolume(scores, offsets)


def warp_features(features: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Backward-warp every channel by the flow, clamping at the borders."""
    features = _check_stack(features, "features")
    flow = _check_flow(flow, size=features.shape[1:])
    ys, xs = _pixel_axes(*features.shape[1:])
    return bilinear_sample(features, xs + flow[..., 0], ys + flow[..., 1])


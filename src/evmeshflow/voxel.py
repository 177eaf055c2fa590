"""Polarity-signed voxel grids and event density.

A stream is rasterized into B temporal bins with a triangular kernel: an
event at normalized time s contributes p * max(0, 1 - |b - s*(B-1)|) to bin
b at its pixel.  The kernel weights for one event always sum to 1, so the
grid conserves total signed polarity.
"""

import numpy as np

from .errors import _check_int, _check_stack
from .events import EventStream


def voxelize(stream: EventStream, bins: int = 5) -> np.ndarray:
    """Accumulate a stream into a (B, H, W) float64 voxel grid.

    Normalized time runs over the event span: the first and last event map
    to 0 and 1.  An empty stream yields zeros; a stream whose events share
    one timestamp puts all mass in bin 0.
    """
    bins = _check_int(bins, "bins", 1)
    # Both terms of every event go in unmasked: a zero upper weight adds
    # +-0.0, which leaves a cell unchanged, and the upper terms of the last
    # bin land in the spare plane `bins`.
    grid = np.zeros((bins + 1, stream.height, stream.width))
    n = len(stream)
    if n == 0:
        return grid[:bins]
    t0 = stream.t[0]
    tn = stream.t[-1]
    if tn > t0:
        coord = (stream.t - t0) / float(tn - t0) * (bins - 1)
    else:
        coord = np.zeros(n)
    b0 = np.floor(coord).astype(np.int64)
    b0 = np.clip(b0, 0, bins - 1)
    w1 = coord - b0
    w0 = 1.0 - w1
    pol = stream.p.astype(np.float64)
    plane = stream.height * stream.width
    flat = grid.reshape(-1)
    cell = b0 * plane + (stream.y.astype(np.int64) * stream.width + stream.x)
    np.add.at(flat, cell, pol * w0)
    np.add.at(flat, cell + plane, pol * w1)
    return grid[:bins]


def density(grid: np.ndarray) -> float:
    """Fraction of pixels whose summed absolute bin mass is nonzero.

    Pixels whose positive and negative contributions cancel exactly within
    a bin count as inactive.
    """
    grid = _check_stack(grid, "grid")
    active = np.abs(grid).sum(axis=0) > 0.0
    return float(active.mean())

"""Polarity-signed voxel grids and event density.

A stream is rasterized into B temporal bins with a triangular kernel: an
event at normalized time s contributes p * max(0, 1 - |b - s*(B-1)|) to bin
b at its pixel.  The kernel weights for one event always sum to 1, so the
grid conserves total signed polarity.

`voxelize` walks the events in `events._BLOCK`-sized blocks twice: the
lower-bin terms of every block, then the upper-bin terms of every block.
Each cell therefore receives its additions in the order of the whole-array
form, all lower terms in event order and then all upper ones, and every
term is the same float, so the grid's bytes do not depend on the block size.
Its event-sized arrays are the stream's own; everything it allocates is
the grid and block-sized temporaries.  `density` holds two (H, W) planes
besides the grid.
"""

import numpy as np

from .errors import _check_int, _check_stack
from .events import EventStream, _blocks


def voxelize(stream: EventStream, bins: int = 5) -> np.ndarray:
    """Accumulate a stream into a (B, H, W) float64 voxel grid.

    Normalized time runs over the event span: the first and last event map
    to 0 and 1.  An empty stream yields zeros; a stream whose events share
    one timestamp puts all mass in bin 0.
    """
    bins = _check_int(bins, "bins", 1)
    # Both terms of every event go in unmasked.  Only an event whose coord
    # is exactly bins - 1 has lower bin bins - 1, and its upper weight is
    # exactly 0, so its upper term is clamped into that bin: adding +-0.0
    # leaves a cell unchanged, because a cell that starts at +0.0 never
    # becomes -0.0 under round-to-nearest addition.
    grid = np.zeros((bins, stream.height, stream.width))
    n = len(stream)
    if n == 0:
        return grid
    t0 = stream.t[0]
    # When every event shares one time, each coord is 0 / 1.0 * (bins - 1) = +0.0.
    span = float(stream.t[-1] - t0) or 1.0
    plane = stream.height * stream.width
    flat = grid.reshape(-1)
    for upper in (0, 1):
        for s in _blocks(n):
            coord = (stream.t[s] - t0) / span * (bins - 1)
            b0 = np.clip(np.floor(coord).astype(np.int64), 0, bins - 1)
            weight = coord - b0
            if not upper:
                weight = 1.0 - weight
            weight *= stream.p[s]
            pix = stream.y[s].astype(np.int64) * stream.width + stream.x[s]
            np.add.at(flat, np.minimum(b0 + upper, bins - 1) * plane + pix, weight)
    return grid


def density(grid: np.ndarray) -> float:
    """Fraction of pixels whose summed absolute bin mass is nonzero.

    Pixels whose positive and negative contributions cancel exactly within
    a bin count as inactive.
    """
    grid = _check_stack(grid, "grid")
    # Plane by plane, in the order of a sum over axis 0, so no |grid|-sized
    # copy is built: at most two (H, W) planes are held.
    total = np.abs(grid[0])
    for plane in grid[1:]:
        total += np.abs(plane)
    return float((total > 0.0).mean())

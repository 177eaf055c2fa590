"""Polarity-signed voxel grids and event density.

A stream is rasterized into B temporal bins with a triangular kernel: an
event at normalized time s contributes p * max(0, 1 - |b - s*(B-1)|) to bin
b at its pixel.  The kernel weights for one event always sum to 1, so the
grid conserves total signed polarity.

`voxelize` walks the events through `blocks()` twice: the lower-bin terms
of every block, then the upper-bin terms of every block.  Each cell
therefore receives its additions in the order of the whole-array form, all
lower terms in event order and then all upper ones, and every term is the
same float, so the grid's bytes depend neither on the block size nor on
the source.  The source is an `EventStream` or an `io.Evt1File`, which
serves its blocks from the file, so an EVT1 file is voxelized without
loading it; everything `voxelize` allocates is the grid and block-sized
temporaries.  `density` holds two (H, W) planes besides the grid.
"""

import numpy as np

from .errors import _check_int, _check_stack
from .events import EventStream


def _event_span(stream) -> tuple[int, int]:
    """The first and last event times; an `Evt1File`'s span is its records'."""
    if isinstance(stream, EventStream):
        return int(stream.t[0]), int(stream.t[-1])
    return stream.t_start, stream.t_end


def voxelize(stream, bins: int = 5) -> np.ndarray:
    """Accumulate an `EventStream` or `io.Evt1File` into a (B, H, W) float64 voxel grid.

    Normalized time runs over the event span: the first and last event map
    to 0 and 1.  An empty stream yields zeros; a stream whose events share
    one timestamp puts all mass in bin 0.  A file is read twice, and a
    record that fails `Evt1File.blocks`' checks raises FormatError.
    """
    bins = _check_int(bins, "bins", 1)
    # Both terms of every event go in unmasked.  Only an event whose coord
    # is exactly bins - 1 has lower bin bins - 1, and its upper weight is
    # exactly 0, so its upper term is clamped into that bin: adding +-0.0
    # leaves a cell unchanged, because a cell that starts at +0.0 never
    # becomes -0.0 under round-to-nearest addition.
    grid = np.zeros((bins, stream.height, stream.width))
    if len(stream) == 0:
        return grid
    t0, t1 = _event_span(stream)
    # When every event shares one time, each coord is 0 / 1.0 * (bins - 1) = +0.0.
    span = float(t1 - t0) or 1.0
    plane = stream.height * stream.width
    flat = grid.reshape(-1)
    for upper in (0, 1):
        for _, x, y, t, p in stream.blocks():
            coord = (t - t0) / span * (bins - 1)
            b0 = np.clip(np.floor(coord).astype(np.int64), 0, bins - 1)
            weight = coord - b0
            if not upper:
                weight = 1.0 - weight
            weight *= p
            pix = y.astype(np.int64) * stream.width + x
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

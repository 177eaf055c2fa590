"""The one bilinear sampler, shared by scene rendering, warping and fusion."""

import numpy as np

from .errors import ShapeError


def bilinear_sample(values: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sample a regular grid at continuous positions with edge clamping.

    Args:
        values: array of shape (H, W) or (C, H, W).
        x, y: broadcast-compatible arrays of sample positions in pixel
            coordinates (x along width, y along height).

    Returns:
        Samples with the spatial shape of ``x`` (leading channel axis kept
        for (C, H, W) input).  Positions outside the grid read the nearest
        edge value.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim == 2:
        vals = vals[None]
        squeeze = True
    elif vals.ndim == 3:
        squeeze = False
    else:
        raise ShapeError(f"expected (H, W) or (C, H, W) values, got {values.shape}")
    _, height, width = vals.shape

    x = np.clip(np.asarray(x, dtype=np.float64), 0.0, width - 1.0)
    y = np.clip(np.asarray(y, dtype=np.float64), 0.0, height - 1.0)

    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx, fy = x - x0, y - y0
    gx, gy = 1.0 - fx, 1.0 - fy
    row0, row1 = y0 * width, y1 * width
    # One copy for a strided (channels-last) view, so that np.take does
    # not copy each plane again for every corner.
    flat = np.ascontiguousarray(vals.reshape(vals.shape[0], -1))

    # Corner by corner, each plane is gathered and weighted in place in
    # one reused buffer and added into its output plane, so per sample the
    # terms add up left to right as v00*gx*gy + v01*fx*gy + v10*gx*fy +
    # v11*fx*fy and no (C, ...) temporaries are built.  Finite positions
    # give indices in range, so mode="clip" changes no value; it only keeps
    # np.take from buffering.  A NaN position warns in the int64 cast.
    shape = np.broadcast_shapes(x.shape, y.shape)
    out = np.empty((flat.shape[0],) + shape)
    term = np.empty(shape)
    idx = np.empty(shape, dtype=np.int64)
    corners = (
        (row0, x0, gx, gy),
        (row0, x1, fx, gy),
        (row1, x0, gx, fy),
        (row1, x1, fx, fy),
    )
    for k, (row, col, wx, wy) in enumerate(corners):
        np.add(row, col, out=idx)
        for c, plane in enumerate(flat):
            dst = term if k else out[c, ...]
            np.take(plane, idx, out=dst, mode="clip")
            dst *= wx
            dst *= wy
            if k:
                out[c, ...] += term
    return out[0] if squeeze else out


def _sample_channels_last(field: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """bilinear_sample of an (H, W, C) field in one call, channels last.

    Returns a C-contiguous array of shape broadcast(x, y) + (C,), equal
    byte for byte to stacking one bilinear_sample per channel.
    """
    out = bilinear_sample(np.moveaxis(field, -1, 0), x, y)
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))

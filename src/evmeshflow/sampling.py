"""Bilinear sampling helpers shared by the warping and fusion modules."""

import numpy as np

from .errors import ShapeError


def _blend(flat, width, x0, x1, y0, y1, fx, fy):
    """Blend the four corners gathered from a (C, H*W) view of the grid.

    Returns a C-ordered (C, ...) stack.  Corner by corner, each plane is
    gathered and weighted in place in one reused buffer and added into
    its output plane, so per sample the terms add up left to right as
    v00*gx*gy + v01*fx*gy + v10*gx*fy + v11*fx*fy and no (C, ...)
    temporaries are built.  The indices lie in range by construction, so
    mode="clip" changes no value; it only keeps np.take from buffering.
    """
    gx = 1.0 - fx
    gy = 1.0 - fy
    row0, row1 = y0 * width, y1 * width
    shape = np.broadcast_shapes(np.shape(x0), np.shape(y0))
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
    return out


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

    x0 = np.clip(np.floor(x).astype(np.int64), 0, width - 1)
    y0 = np.clip(np.floor(y).astype(np.int64), 0, height - 1)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    # One copy for a strided (channels-last) view, so that np.take does
    # not copy each plane again for every corner.
    flat = np.ascontiguousarray(vals.reshape(vals.shape[0], -1))
    out = _blend(flat, width, x0, x1, y0, y1, x - x0, y - y0)
    return out[0] if squeeze else out


def bilinear_sample_wrapped(values: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sample a (H, W) grid at continuous positions with toroidal wrap.

    ``x`` and ``y`` broadcast against each other; separable (1, W) and
    (H, 1) positions keep the wrap and floor arithmetic at H + W values,
    and only the gathers and the blend run at the broadcast shape.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 2:
        raise ShapeError(f"expected (H, W) values, got {values.shape}")
    height, width = vals.shape

    x = np.mod(np.asarray(x, dtype=np.float64), width)
    y = np.mod(np.asarray(y, dtype=np.float64), height)
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    fx = x - x0
    fy = y - y0
    x0 %= width
    y0 %= height
    x1 = (x0 + 1) % width
    y1 = (y0 + 1) % height
    return _blend(vals.reshape(1, -1), width, x0, x1, y0, y1, fx, fy)[0]


def _sample_channels_last(field: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """bilinear_sample of an (H, W, C) field in one call, channels last.

    Returns a C-contiguous array of shape broadcast(x, y) + (C,), equal
    byte for byte to stacking one bilinear_sample per channel.
    """
    out = bilinear_sample(np.moveaxis(field, -1, 0), x, y)
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))

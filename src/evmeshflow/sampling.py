"""Bilinear sampling helpers shared by the warping and fusion modules."""

import numpy as np

from .errors import ShapeError


def _blend(flat, width, x0, x1, y0, y1, fx, fy):
    """Blend the four corners gathered from a (C, H*W) view of the grid.

    np.take along the flattened planes returns C-ordered (C, ...) samples;
    fancy indexing vals[:, y0, x0] returns them channel-last, which slows
    every reduction over C downstream (correlate ~3x).
    """
    gx = 1.0 - fx
    gy = 1.0 - fy
    row0, row1 = y0 * width, y1 * width
    return (
        np.take(flat, row0 + x0, axis=1) * gx * gy
        + np.take(flat, row0 + x1, axis=1) * fx * gy
        + np.take(flat, row1 + x0, axis=1) * gx * fy
        + np.take(flat, row1 + x1, axis=1) * fx * fy
    )


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
    flat = vals.reshape(vals.shape[0], -1)
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

"""The one bilinear sampler, shared by scene rendering, warping and fusion.

`bilinear_sample` and `_sample_channels_last` fill their output planes
through `_sample_planes`, which walks the broadcast shape of the positions
along its first axis in blocks of about `_TILE` samples (a call of at most
`_TILE` samples is one block).  Each position array keeps its own shape
inside a block, so (H, 1) and (1, W) axes are never expanded to (H, W).
Per block the positions are clipped to the grid, the corner index
row0 * s_r + col0 * s_c is formed once from the field's element strides
and stepped by s_c * (col0 < W - 1) and s_r * (row0 < H - 1), and every
plane, read in place, receives its four corners in the order
v00*gx*gy, v01*fx*gy, v10*gx*fy, v11*fx*fy: each corner is gathered,
multiplied by its x weight and then its y weight, and added into the plane.
Every temporary is block-sized and stays in cache.

The bytes are those of the whole-array form.  Each output sample depends
only on its own positions and takes the same float operations in the same
order whatever the block it falls in.  On clipped positions, truncation to
int64 is floor; fx = x - int64(x0) is the same subtraction; and stepping the
index adds the same integers as min(x0 + 1, W - 1) and min(y0 + 1, H - 1).
"""

import numpy as np

from .errors import ShapeError

# Samples per block.  On a 2-vCPU Xeon with 2 MiB L2 per core, at 256x256,
# medians of 9 rounds at 2**12, 2**13, 2**14, 2**15 and 2**16 samples:
# one dense C = 1 call 1.54, 1.28, 1.24, 1.37 and 1.72 ms; one C = 32 call
# 21.4, 22.0, 19.0, 22.0 and 23.8 ms; upsample_bilinear 2.38, 1.98, 1.73,
# 1.90 and 1.97 ms; an affine render 2.31, 1.98, 1.97, 2.36 and 2.42 ms.
_TILE = 2**14


def _pixel_axes(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel coordinates as (H, 1) rows and (1, W) columns that broadcast to (H, W)."""
    ys = np.arange(height, dtype=np.float64)[:, None]
    xs = np.arange(width, dtype=np.float64)[None, :]
    return ys, xs


def _sample_planes(flat, strides, height, width, x, y, out) -> None:
    """Sample each (H, W) plane of a field into the matching plane of out.

    flat is the field's C-contiguous buffer and strides its (plane, row,
    column) steps in elements: (H * W, W, 1) for a (C, H, W) stack and
    (1, W * C, C) for an (H, W, C) field, so neither is copied.  out is
    (C,) + broadcast(x, y) and may be a strided view.  A NaN position warns
    in the int64 cast.
    """
    if out.ndim == 1:
        out = out[:, None]
    shape = out.shape[1:]
    x = x.reshape((1,) * (len(shape) - x.ndim) + x.shape)
    y = y.reshape((1,) * (len(shape) - y.ndim) + y.shape)
    inner = int(np.prod(shape[1:]))
    rows = max(1, _TILE // max(inner, 1))
    size = min(rows, shape[0]) * inner
    term = np.empty(size)
    corners = np.empty((4, size), dtype=np.int64)
    for lo in range(0, shape[0], rows):
        hi = min(lo + rows, shape[0])
        block = (hi - lo,) + shape[1:]
        n = (hi - lo) * inner
        _sample_block(
            flat, strides, height, width,
            x if len(x) == 1 else x[lo:hi], y if len(y) == 1 else y[lo:hi], out[:, lo:hi],
            term[:n].reshape(block), corners[:, :n].reshape((4,) + block),
        )


def _sample_block(flat, strides, height, width, x, y, out, term, corners):
    """One block of _sample_planes; its temporaries die before the next block's."""
    s_p, s_r, s_c = strides
    fx = np.clip(x, 0.0, width - 1.0)
    fy = np.clip(y, 0.0, height - 1.0)
    col0 = fx.astype(np.int64)
    row0 = fy.astype(np.int64)
    np.subtract(fx, col0, out=fx)
    np.subtract(fy, row0, out=fy)
    gx, gy = 1.0 - fx, 1.0 - fy
    i00, i01, i10, i11 = corners
    step_x = col0 < width - 1
    step_y = (row0 < height - 1) * s_r
    row0 *= s_r
    if s_c != 1:  # two passes that (C, H, W) stacks skip
        step_x, col0 = step_x * s_c, col0 * s_c
    np.add(row0, col0, out=i00)
    np.add(i00, step_x, out=i01)
    np.add(i00, step_y, out=i10)
    np.add(i01, step_y, out=i11)

    # Plane by plane, each corner is gathered and weighted in place in term
    # and added into the output plane, while the plane stays in cache.
    # Plane c is the buffer from c * s_p on.  Finite positions give indices
    # in range, so mode="clip" changes no value; it only keeps np.take from
    # buffering.
    weights = ((gx, gy), (fx, gy), (gx, fy), (fx, fy))
    for c, dst in enumerate(out):
        plane = flat[c * s_p:]
        for k, (idx, (wx, wy)) in enumerate(zip(corners, weights)):
            np.take(plane, idx, out=term, mode="clip")
            term *= wx
            if k:
                term *= wy
                dst += term
            else:
                np.multiply(term, wy, out=dst)


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
    vals = np.ascontiguousarray(values, dtype=np.float64)
    if vals.ndim == 2:
        vals = vals[None]
        squeeze = True
    elif vals.ndim == 3:
        squeeze = False
    else:
        raise ShapeError(f"expected (H, W) or (C, H, W) values, got {values.shape}")
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    _, height, width = vals.shape
    out = np.empty(vals.shape[:1] + np.broadcast_shapes(x.shape, y.shape))
    _sample_planes(vals.ravel(), (height * width, width, 1), height, width, x, y, out)
    return out[0] if squeeze else out


def _sample_channels_last(field: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """bilinear_sample of an (H, W, C) field in one call, channels last.

    Returns a C-contiguous array of shape broadcast(x, y) + (C,), equal
    byte for byte to stacking one bilinear_sample per channel.
    """
    field = np.ascontiguousarray(field, dtype=np.float64)
    height, width, channels = field.shape
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    out = np.empty(np.broadcast_shapes(x.shape, y.shape) + (channels,))
    strides = (1, width * channels, channels)
    _sample_planes(field.ravel(), strides, height, width, x, y, np.moveaxis(out, -1, 0))
    return out

"""Mesh flow: sparse vertex motion extracted from dense flow.

A regular grid of cells covers the image; each cell contributes the flow
at its center, sampled bilinearly, as a candidate motion to the 4x4 block
of vertices around it (fewer at the image border).  A per-vertex
componentwise median over candidates followed by a 3x3 vertex-window
median gives a compact motion field that ignores small outlier regions,
unlike plain bilinear downsampling.  Vertex (i, j) sits at pixel coordinates
(j * W / cells_x, i * H / cells_y), so bilinear interpolation between
vertices reconstructs a dense field at any resolution.

The border is clipped rather than extrapolated, so that outlier regions at
the image edge are rejected like those inside.  The price is a border bias
for non-constant fields: each vertex's f1 median of an affine field equals
the field at the centroid of its candidate cell centers, and at a corner
that centroid lies one cell inward along each axis.  The bias covers
vertices 0 and 1 from each border after f1 and reaches vertex 2 through
the 3x3 window of f2, so affine fields are reconstructed exactly only at
least 3 cells in from every border.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, _check_flow, _check_image, _check_int, _check_mesh
from .sampling import _pixel_axes, _sample_channels_last, bilinear_sample


@dataclass(frozen=True)
class MeshGridSpec:
    """Mesh geometry: cells_x * cells_y cells, one more vertex per axis."""

    cells_x: int = 16
    cells_y: int = 16

    def __post_init__(self):
        _check_int(self.cells_x, "cells_x", 1)
        _check_int(self.cells_y, "cells_y", 1)

    @property
    def vertices_x(self) -> int:
        return self.cells_x + 1

    @property
    def vertices_y(self) -> int:
        return self.cells_y + 1


def _windows(grid: np.ndarray, size: int) -> np.ndarray:
    """Stacked size x size neighborhoods of an (Ny, Nx, 2) grid.

    The grid is padded by size // 2 NaNs per side, so window (i, j) holds
    grid rows i - size // 2 .. i + (size - 1) // 2 and likewise columns,
    in row-major slot order, NaN where they fall outside the grid.
    """
    pad = size // 2
    padded = np.pad(grid, ((pad, pad), (pad, pad), (0, 0)), constant_values=np.nan)
    win = sliding_window_view(padded, (size, size), axis=(0, 1))
    return np.moveaxis(win, 2, -1).reshape(win.shape[0], win.shape[1], size * size, 2)


def propagate(flow: np.ndarray, spec: MeshGridSpec) -> np.ndarray:
    """Spread each cell's center flow to the vertices around it.

    The center of cell (cx, cy) is ((cx + 0.5) * W / cells_x,
    (cy + 0.5) * H / cells_y); the flow there is sampled bilinearly, which
    reads the pixel itself wherever the center is a whole pixel.  Cell
    (cx, cy) covers the 3x3-cell rectangle centered on it, so its
    motion reaches vertices (cx-1..cx+2, cy-1..cy+2) clipped to the grid:
    16 candidates at interior vertices, 4 at the corners.  Returns the
    (Vy, Vx, 16, 2) candidates, NaN in the slots a vertex does not receive.
    """
    flow = _check_flow(flow)
    height, width = flow.shape[:2]
    cx = (np.arange(spec.cells_x) + 0.5) * (width / spec.cells_x)
    cy = (np.arange(spec.cells_y) + 0.5) * (height / spec.cells_y)
    cell_motion = _sample_channels_last(flow, cx[None, :], cy[:, None])
    return _windows(cell_motion, 4)


def _nanmedian(values: np.ndarray) -> np.ndarray:
    """np.nanmedian(values, axis=2), byte for byte, without masked arrays.

    Below 600 slots np.nanmedian goes through np.ma.median, which sorts
    each slice with NaN filled as +inf, sums its two middle entries with
    np.sum and halves the sum.  That sum starts from 0.0, so any pair of
    zeros gives +0.0 and the order of -0.0 and +0.0 ties cannot show.
    Slices without a non-NaN value give NaN.
    """
    missing = np.isnan(values)
    count = values.shape[2] - np.count_nonzero(missing, axis=2)
    ordered = np.sort(np.where(missing, np.inf, values), axis=2)
    middle = np.stack([(count - 1) // 2, count // 2], axis=2)
    median = np.sum(np.take_along_axis(ordered, middle, axis=2), axis=2) / 2.0
    median[count == 0] = np.nan
    return median


def f1_median(candidates: np.ndarray) -> np.ndarray:
    """Componentwise median over each vertex's NaN-padded candidate list.

    Even-sized lists average the two middle values per component.
    """
    if np.any(np.all(np.isnan(candidates[..., 0]), axis=2)):
        raise DataError("a vertex has no motion candidates")
    return _nanmedian(candidates)


def f2_smooth(mesh: np.ndarray) -> np.ndarray:
    """Componentwise median over each vertex's 3x3 vertex neighborhood.

    Windows are truncated at the mesh border rather than padded.
    """
    mesh = _check_flow(mesh, "mesh")
    return _nanmedian(_windows(mesh, 3))


def extract_meshflow(flow: np.ndarray, spec: MeshGridSpec = MeshGridSpec()) -> np.ndarray:
    """Dense flow -> (Vy, Vx, 2) mesh via propagation and both medians.

    For an affine field the result is f2_smooth applied to the field at each
    vertex's candidate-centroid position (the mean cell center of cells
    v-2..v+1, clipped to the grid, per axis).  Vertices at least 3 from
    every border are exact; those nearer are biased toward the interior.
    """
    return f2_smooth(f1_median(propagate(flow, spec)))


def upsample_bilinear(mesh: np.ndarray, height: int, width: int) -> np.ndarray:
    """Interpolate a vertex mesh back to a dense (H, W, 2) flow field."""
    mesh = _check_mesh(mesh)
    height, width = _check_int(height, "height", 1), _check_int(width, "width", 1)
    cells_y, cells_x = mesh.shape[0] - 1, mesh.shape[1] - 1
    xs = np.arange(width) * (cells_x / width)
    ys = np.arange(height) * (cells_y / height)
    return _sample_channels_last(mesh, xs[None, :], ys[:, None])


def downsample_to_mesh(flow: np.ndarray, spec: MeshGridSpec = MeshGridSpec()) -> np.ndarray:
    """Plain bilinear sampling of dense flow at the vertex positions.

    The naive alternative to extract_meshflow; kept for comparisons.
    """
    flow = _check_flow(flow)
    height, width = flow.shape[:2]
    vx_pos = np.arange(spec.vertices_x) * (width / spec.cells_x)
    vy_pos = np.arange(spec.vertices_y) * (height / spec.cells_y)
    return _sample_channels_last(flow, vx_pos[None, :], vy_pos[:, None])


def backward_warp(image: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Sample image at u + flow(u) for every pixel u, clamping at edges."""
    image = _check_image(image)
    flow = _check_flow(flow, size=image.shape)
    ys, xs = _pixel_axes(*image.shape)
    return bilinear_sample(image, xs + flow[..., 0], ys + flow[..., 1])


def alignment_error(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Mean absolute intensity difference between two images."""
    reference = _check_image(reference, "reference")
    candidate = _check_image(candidate, "candidate", reference.shape)
    diff = reference - candidate
    return float(np.mean(np.abs(diff, out=diff)))

"""Mesh flow: sparse vertex motion extracted from dense flow.

A regular grid of cells covers the image; each cell contributes the flow
at its center pixel as a candidate motion to the 4x4 block of vertices
around it (fewer at the image border).  A per-vertex componentwise median
over candidates followed by a 3x3 vertex-window median gives a compact
motion field that ignores small outlier regions, unlike plain bilinear
downsampling.  Vertex (i, j) sits at pixel coordinates
(j * W / cells_x, i * H / cells_y), so bilinear interpolation between
vertices reconstructs a dense field at any resolution.

The border is clipped rather than extrapolated, so that outlier regions at
the image edge are rejected like those inside.  The price is a border bias
for non-constant fields: each vertex's f1 median of an affine field equals
the field at the centroid of its candidate cell centers, and at a corner
that centroid lies one cell inward along each axis.  The bias covers
vertices 0 and 1 from each border after f1 and reaches vertex 2 through
the 3x3 window of f2, so affine fields are reconstructed exactly only at
least 3 cells in from every border, and there only when each cell spans
an even number of pixels, so that its center falls on a whole pixel.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, ParameterError, ShapeError
from .sampling import bilinear_sample


@dataclass(frozen=True)
class MeshGridSpec:
    """Mesh geometry: cells_x * cells_y cells, one more vertex per axis."""

    cells_x: int = 16
    cells_y: int = 16

    def __post_init__(self):
        if self.cells_x < 1 or self.cells_y < 1:
            raise ParameterError("mesh needs at least one cell per axis")

    @property
    def vertices_x(self) -> int:
        return self.cells_x + 1

    @property
    def vertices_y(self) -> int:
        return self.cells_y + 1


@dataclass
class VertexCandidates:
    """Per-vertex candidate motions, NaN-padded to the 16-candidate maximum."""

    values: np.ndarray  # (Vy, Vx, 16, 2), NaN marks absent slots
    counts: np.ndarray  # (Vy, Vx) int

    def at(self, vy: int, vx: int) -> np.ndarray:
        vals = self.values[vy, vx]
        return vals[~np.isnan(vals[:, 0])]


def _check_flow(flow: np.ndarray) -> np.ndarray:
    flow = np.asarray(flow, dtype=np.float64)
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ShapeError(f"expected (H, W, 2) flow, got {flow.shape}")
    return flow


def cell_center_pixels(spec: MeshGridSpec, height: int, width: int):
    """Integer pixel (cx_px, cy_px) of every cell center.

    The real-valued center of cell (cx, cy) is ((cx + 0.5) * W / cells_x,
    (cy + 0.5) * H / cells_y); rounding ties go toward the lower index.
    """
    cw = width / spec.cells_x
    ch = height / spec.cells_y
    cx = (np.arange(spec.cells_x) + 0.5) * cw
    cy = (np.arange(spec.cells_y) + 0.5) * ch
    px = np.clip(np.ceil(cx - 0.5).astype(np.int64), 0, width - 1)
    py = np.clip(np.ceil(cy - 0.5).astype(np.int64), 0, height - 1)
    return px, py


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


def propagate(flow: np.ndarray, spec: MeshGridSpec) -> VertexCandidates:
    """Spread each cell's center-pixel flow to the vertices around it.

    Cell (cx, cy) covers the 3x3-cell rectangle centered on it, so its
    motion reaches vertices (cx-1..cx+2, cy-1..cy+2) clipped to the grid:
    16 candidates at interior vertices, 4 at the corners.
    """
    flow = _check_flow(flow)
    height, width = flow.shape[:2]
    if height < 1 or width < 1:
        raise ShapeError("flow must be non-empty")
    px, py = cell_center_pixels(spec, height, width)
    cell_motion = flow[py[:, None], px[None, :]]  # (cells_y, cells_x, 2)

    values = _windows(cell_motion, 4)
    counts = (~np.isnan(values[..., 0])).sum(axis=2)
    return VertexCandidates(values, counts)


def f1_median(candidates: VertexCandidates) -> np.ndarray:
    """Componentwise median over each vertex's candidate list.

    Even-sized lists average the two middle values per component.
    """
    if np.any(candidates.counts == 0):
        raise DataError("a vertex has no motion candidates")
    return np.nanmedian(candidates.values, axis=2)


def f2_smooth(mesh: np.ndarray) -> np.ndarray:
    """Componentwise median over each vertex's 3x3 vertex neighborhood.

    Windows are truncated at the mesh border rather than padded.
    """
    mesh = _check_flow(mesh)
    return np.nanmedian(_windows(mesh, 3), axis=2)


def extract_meshflow(flow: np.ndarray, spec: MeshGridSpec = MeshGridSpec()) -> np.ndarray:
    """Dense flow -> (Vy, Vx, 2) mesh via propagation and both medians.

    For an affine field the result is f2_smooth applied to the field at each
    vertex's candidate-centroid position (the mean center pixel of cells
    v-2..v+1, clipped to the grid, per axis).  With cells an even number
    of pixels wide, vertices at least 3 from every border are exact; those
    nearer are biased toward the interior.
    """
    return f2_smooth(f1_median(propagate(flow, spec)))


def upsample_bilinear(mesh: np.ndarray, height: int, width: int) -> np.ndarray:
    """Interpolate a vertex mesh back to a dense (H, W, 2) flow field."""
    mesh = _check_flow(mesh)
    if height < 1 or width < 1:
        raise ParameterError("target dimensions must be positive")
    vy_n, vx_n = mesh.shape[:2]
    cells_x = vx_n - 1
    cells_y = vy_n - 1
    if cells_x < 1 or cells_y < 1:
        raise ShapeError("mesh needs at least 2 vertices per axis")
    xs = np.arange(width) * (cells_x / width)
    ys = np.arange(height) * (cells_y / height)
    gx, gy = np.meshgrid(xs, ys)
    comps = [bilinear_sample(mesh[..., c], gx, gy) for c in (0, 1)]
    return np.stack(comps, axis=-1)


def downsample_to_mesh(flow: np.ndarray, spec: MeshGridSpec = MeshGridSpec()) -> np.ndarray:
    """Plain bilinear sampling of dense flow at the vertex positions.

    The naive alternative to extract_meshflow; kept for comparisons.
    """
    flow = _check_flow(flow)
    height, width = flow.shape[:2]
    vx_pos = np.arange(spec.vertices_x) * (width / spec.cells_x)
    vy_pos = np.arange(spec.vertices_y) * (height / spec.cells_y)
    gx, gy = np.meshgrid(vx_pos, vy_pos)
    comps = [bilinear_sample(flow[..., c], gx, gy) for c in (0, 1)]
    return np.stack(comps, axis=-1)


def backward_warp(image: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Sample image at u + flow(u) for every pixel u, clamping at edges."""
    image = np.asarray(image, dtype=np.float64)
    flow = _check_flow(flow)
    if image.ndim != 2:
        raise ShapeError(f"expected (H, W) image, got {image.shape}")
    if flow.shape[:2] != image.shape:
        raise ShapeError("flow and image dimensions differ")
    height, width = image.shape
    gy, gx = np.mgrid[0:height, 0:width].astype(np.float64)
    return bilinear_sample(image, gx + flow[..., 0], gy + flow[..., 1])


def alignment_error(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Mean absolute intensity difference between two images."""
    reference = np.asarray(reference, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if reference.shape != candidate.shape or reference.ndim != 2:
        raise ShapeError("images must share an (H, W) shape")
    return float(np.mean(np.abs(reference - candidate)))

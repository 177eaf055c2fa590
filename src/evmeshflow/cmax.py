"""Flow-based event warping and contrast scoring.

Warping transports each event along the flow at its pixel to a reference
time; a motion-consistent stream collapses onto sharp edges in the
resulting event-count image, which shows up as high variance.  Scoring a
stream at both endpoints of its interval and summing the variances gives
the two-sided objective used to rank candidate streams.

Every step walks the events in `events._BLOCK`-sized blocks through three
private helpers, so each formula exists once: `_warp_block` transports a
block, `_cell_block` turns its positions into each event's padded corner
cell and two fractions, and `_splat` adds the image from those.  The
event-sized arrays are a call's outputs and the splat's inputs:
`warp_events` allocates only `xw` and `yw` (16 bytes per event);
`accumulate_iwe` only the cells and fractions (20 bytes per event: the
cells are int32 on any sensor below 2**31 padded pixels); and
`two_sided_components` warps each block straight into the fraction arrays
and never holds event-sized positions, so it too needs 20 bytes per event.
The warps read their events through `blocks()`, which an `EventStream`
serves from its arrays and an `io.Evt1File` from its file, one block of
records at a time; so `two_sided_components` and `select_best` score an
EVT1 file without loading it, holding only those 20 bytes per event of
the candidate being scored.  Each event is warped once per endpoint, so
scoring a file reads it twice.  `_splat` adds corner by corner,
each corner over the blocks in event order, which is the order of the
whole-array form, so every pixel sums the same terms in the same order and
the image's bytes depend neither on the block size nor on the caller.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _check_flow, _check_image
from .events import EventStream, _blocks
from .io import Evt1File


@dataclass
class WarpedEvents:
    """Continuous event positions after transport to a reference time.

    Positions may leave the sensor; rasterizing discards the mass that
    lands off it.
    """

    xw: np.ndarray
    yw: np.ndarray
    width: int
    height: int


def _check_warp(stream, flow, t_ref, t_i, t_j):
    """Return the flow as (H*W, 2) rows and the interval length t_j - t_i."""
    flow = _check_flow(flow, size=(stream.height, stream.width))
    if not all(math.isfinite(t) for t in (t_ref, t_i, t_j)):
        raise ParameterError("warp times t_ref, t_i and t_j must be finite")
    if t_j == t_i:
        raise ParameterError("warp interval must have nonzero length")
    return flow.reshape(-1, 2), float(t_j - t_i)


def _warp_block(x, y, t, width, flat, t_ref, length, xw, yw):
    """Write the positions at t_ref of a block's events (x, y, t) into xw and yw."""
    factor = (t_ref - t.astype(np.float64)) / length
    pix = y.astype(np.int64) * width + x
    fx, fy = np.take(flat, pix, axis=0).T
    np.multiply(factor, fx, out=xw)
    xw += x
    np.multiply(factor, fy, out=yw)
    yw += y


def _cell_dtype(width, height):
    """int32 when every padded cell index fits it, else np.intp."""
    return np.int32 if (height + 2) * (width + 2) < 2**31 else np.intp


def _cell_block(xw, yw, width, height, cell, fx, fy):
    """Write each position's padded corner cell into cell and its fractions into fx, fy.

    xw and yw may be fx and fy themselves; they are read before fx and fy
    are written.  A 1-px border catches corners just off the sensor.  An
    event whose 2x2 footprint leaves the padded grid is sent to cell W + 1,
    the top-right border cell, whose corners (W, -1), (-1, 0), (W, 0) and
    (-1, 1) are all border cells.  Every weight is >= 0 and the cells start
    at +0.0, so zero-weight corners leave the sums unchanged.  Clipping
    leaves in-range events alone, keeps off-grid ones off it, and keeps the
    int64 cast defined for any finite position.
    """
    np.clip(xw, -2, width + 1, out=fx)
    np.clip(yw, -2, height + 1, out=fy)
    x0 = np.floor(fx).astype(np.int64)
    y0 = np.floor(fy).astype(np.int64)
    fx -= x0
    fy -= y0
    inside = (x0 >= -1) & (x0 < width) & (y0 >= -1) & (y0 < height)
    cell[...] = np.where(inside, (y0 + 1) * (width + 2) + (x0 + 1), width + 1)


def _splat(cell, fx, fy, width, height):
    """The (H, W) image of unit masses split bilinearly from each cell's corners."""
    stride = width + 2
    padded = np.zeros((height + 2) * stride)
    # Corner-major, and in event order within a corner: the whole-array add
    # order.  The offset is added in intp, so np.add.at gets native indices
    # whatever the cells' dtype.
    for offset, right, below in ((0, 0, 0), (1, 1, 0), (stride, 0, 1), (stride + 1, 1, 1)):
        for s in _blocks(len(cell)):
            wx = fx[s] if right else 1 - fx[s]
            wy = fy[s] if below else 1 - fy[s]
            np.add.at(padded, np.add(cell[s], offset, dtype=np.intp), wx * wy)
    return padded.reshape(height + 2, stride)[1:-1, 1:-1].copy()


def warp_events(
    stream: EventStream,
    flow: np.ndarray,
    t_ref: float,
    t_i: float,
    t_j: float,
) -> WarpedEvents:
    """Transport events to t_ref along the flow defined over [t_i, t_j].

    The flow field maps the interval start to its end; an event at time t
    moves by (t_ref - t) / (t_j - t_i) times the flow at its (integer)
    pixel.  Times are microseconds, matching stream timestamps, and must
    be finite.
    """
    flat, length = _check_warp(stream, flow, t_ref, t_i, t_j)
    n = len(stream)
    xw, yw = np.empty(n), np.empty(n)
    for s, x, y, t, _ in stream.blocks():
        _warp_block(x, y, t, stream.width, flat, t_ref, length, xw[s], yw[s])
    return WarpedEvents(xw, yw, stream.width, stream.height)


def accumulate_iwe(warped: WarpedEvents) -> np.ndarray:
    """Rasterize warped events into an (H, W) image of event counts.

    Bilinear splatting spreads each unit of mass over the four neighboring
    pixels; mass falling outside the sensor is discarded.
    """
    w, h = warped.width, warped.height
    n = len(warped.xw)
    cell = np.empty(n, dtype=_cell_dtype(w, h))
    fx, fy = np.empty(n), np.empty(n)
    for s in _blocks(n):
        _cell_block(warped.xw[s], warped.yw[s], w, h, cell[s], fx[s], fy[s])
    return _splat(cell, fx, fy, w, h)


def contrast(image: np.ndarray) -> float:
    """Variance of an image over the full sensor domain."""
    return float(np.var(_check_image(image)))


def two_sided_components(
    stream: EventStream | Evt1File,
    flow: np.ndarray,
    t_i: float,
    t_j: float,
) -> tuple[float, float]:
    """Warped-image variance at each interval endpoint, as (var_i, var_j).

    Equal to `contrast(accumulate_iwe(warp_events(stream, flow, t_ref, t_i,
    t_j)))` at t_ref = t_i and t_j, byte for byte, and raises as
    `warp_events` does; each block is warped into the fraction arrays and
    turned into cells in place, so no event-sized positions are held.
    `stream` may be an `io.Evt1File`, whose walk reads the file once per
    endpoint and raises FormatError on a record it rejects; the result is
    that of the stream `read_evt1` gives.
    """
    flat, length = _check_warp(stream, flow, t_i, t_i, t_j)
    w, h = stream.width, stream.height
    n = len(stream)
    cell = np.empty(n, dtype=_cell_dtype(w, h))
    fx, fy = np.empty(n), np.empty(n)
    parts = []
    for t_ref in (t_i, t_j):
        for s, x, y, t, _ in stream.blocks():
            _warp_block(x, y, t, w, flat, t_ref, length, fx[s], fy[s])
            _cell_block(fx[s], fy[s], w, h, cell[s], fx[s], fy[s])
        parts.append(contrast(_splat(cell, fx, fy, w, h)))
    return parts[0], parts[1]


def select_best(
    candidates: list[EventStream | Evt1File],
    flow: np.ndarray,
    t_i: float,
    t_j: float,
) -> tuple[int, list[tuple[float, float]]]:
    """The best candidate's index, and every candidate's (var_i, var_j).

    Candidates rank by var_i + var_j from `two_sided_components`; ties
    resolve to the lowest index.  Candidates are streams or `io.Evt1File`
    handles, mixed as needed; handles are scored one at a time from their
    files.
    """
    if not candidates:
        raise ParameterError("at least one candidate stream required")
    components = [two_sided_components(s, flow, t_i, t_j) for s in candidates]
    return int(np.argmax([var_i + var_j for var_i, var_j in components])), components

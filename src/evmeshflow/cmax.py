"""Flow-based event warping and contrast scoring.

Warping transports each event along the flow at its pixel to a reference
time; a motion-consistent stream collapses onto sharp edges in the
resulting event-count image, which shows up as high variance.  Scoring a
stream at both endpoints of its interval and summing the variances gives
the two-sided objective used to rank candidate streams.

Warping and splatting walk the events in `events._BLOCK`-sized blocks, so
their temporaries are block-sized: `warp_events` allocates only its outputs,
and `accumulate_iwe` only three event-sized arrays (each event's corner
index and fractions) besides the image.  The splat adds corner by corner,
each corner over the blocks in event order, which is the order of the
whole-array form, so every pixel sums the same terms in the same order and
the image's bytes do not depend on the block size.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, _check_flow, _check_image
from .events import EventStream, _blocks


@dataclass
class WarpedEvents:
    """Continuous event positions after transport to a reference time.

    Positions may leave the sensor; rasterizing discards the mass that
    lands off it.  `warp_events` passes the stream's own polarity array as
    `p`, without a copy.
    """

    xw: np.ndarray
    yw: np.ndarray
    p: np.ndarray
    width: int
    height: int


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
    flow = _check_flow(flow, size=(stream.height, stream.width))
    if not all(math.isfinite(t) for t in (t_ref, t_i, t_j)):
        raise ParameterError("warp times t_ref, t_i and t_j must be finite")
    if t_j == t_i:
        raise ParameterError("warp interval must have nonzero length")
    n = len(stream)
    xw, yw = np.empty(n), np.empty(n)
    flat = flow.reshape(-1, 2)
    length = float(t_j - t_i)
    for s in _blocks(n):
        factor = (t_ref - stream.t[s].astype(np.float64)) / length
        pix = stream.y[s].astype(np.int64) * stream.width + stream.x[s]
        fx, fy = np.take(flat, pix, axis=0).T
        np.multiply(factor, fx, out=xw[s])
        xw[s] += stream.x[s]
        np.multiply(factor, fy, out=yw[s])
        yw[s] += stream.y[s]
    return WarpedEvents(xw, yw, stream.p, stream.width, stream.height)


def accumulate_iwe(warped: WarpedEvents) -> np.ndarray:
    """Rasterize warped events into an (H, W) image of event counts.

    Bilinear splatting spreads each unit of mass over the four neighboring
    pixels; mass falling outside the sensor is discarded.
    """
    h, w = warped.height, warped.width
    # A 1-px border catches corners just off the sensor.  An event whose
    # 2x2 footprint leaves the padded grid is sent to base W + 1, the
    # top-right border cell, whose corners (W, -1), (-1, 0), (W, 0) and
    # (-1, 1) are all border cells.  Every weight is >= 0 and the cells
    # start at +0.0, so zero-weight corners leave the sums unchanged.
    # Clipping leaves in-range events alone, keeps off-grid ones off it,
    # and keeps the int64 cast defined for any finite position.
    stride = w + 2
    padded = np.zeros((h + 2) * stride)
    n = len(warped.xw)
    base = np.empty(n, dtype=np.int64)
    fx, fy = np.empty(n), np.empty(n)
    for s in _blocks(n):
        np.clip(warped.xw[s], -2, w + 1, out=fx[s])
        np.clip(warped.yw[s], -2, h + 1, out=fy[s])
        x0 = np.floor(fx[s]).astype(np.int64)
        y0 = np.floor(fy[s]).astype(np.int64)
        fx[s] -= x0
        fy[s] -= y0
        inside = (x0 >= -1) & (x0 < w) & (y0 >= -1) & (y0 < h)
        base[s] = np.where(inside, (y0 + 1) * stride + (x0 + 1), w + 1)
    # Corner-major, and in event order within a corner: the whole-array add order.
    for offset, right, below in ((0, 0, 0), (1, 1, 0), (stride, 0, 1), (stride + 1, 1, 1)):
        for s in _blocks(n):
            wx = fx[s] if right else 1 - fx[s]
            wy = fy[s] if below else 1 - fy[s]
            np.add.at(padded, base[s] + offset, wx * wy)
    return padded.reshape(h + 2, stride)[1:-1, 1:-1].copy()


def contrast(image: np.ndarray) -> float:
    """Variance of an image over the full sensor domain."""
    return float(np.var(_check_image(image)))


def two_sided_components(
    stream: EventStream,
    flow: np.ndarray,
    t_i: float,
    t_j: float,
) -> tuple[float, float]:
    """Warped-image variance at each interval endpoint, as (var_i, var_j)."""
    parts = []
    for t_ref in (t_i, t_j):
        warped = warp_events(stream, flow, t_ref, t_i, t_j)
        parts.append(contrast(accumulate_iwe(warped)))
    return parts[0], parts[1]


def two_sided_score(
    stream: EventStream,
    flow: np.ndarray,
    t_i: float,
    t_j: float,
) -> float:
    """Sum of warped-image variances at both interval endpoints."""
    var_i, var_j = two_sided_components(stream, flow, t_i, t_j)
    return var_i + var_j


def select_best(
    candidates: list[EventStream],
    flow: np.ndarray,
    t_i: float,
    t_j: float,
) -> int:
    """Index of the candidate with the highest two-sided score.

    Ties resolve to the lowest index.
    """
    if not candidates:
        raise ParameterError("at least one candidate stream required")
    scores = [two_sided_score(s, flow, t_i, t_j) for s in candidates]
    return int(np.argmax(scores))

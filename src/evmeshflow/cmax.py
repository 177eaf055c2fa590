"""Flow-based event warping and contrast scoring.

Warping transports each event along the flow at its pixel to a reference
time; a motion-consistent stream collapses onto sharp edges in the
resulting event-count image, which shows up as high variance.  Scoring a
stream at both endpoints of its interval and summing the variances gives
the two-sided objective used to rank candidate streams.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, _check_flow
from .events import EventStream

SPLAT_MODES = ("bilinear", "nearest")


@dataclass
class WarpedEvents:
    """Continuous event positions after transport to a reference time.

    Positions may leave the sensor; rasterizing discards the mass that
    lands off it.
    """

    xw: np.ndarray
    yw: np.ndarray
    p: np.ndarray
    width: int
    height: int
    t_ref: float


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
    pixel.  Times are microseconds, matching stream timestamps.
    """
    flow = _check_flow(flow, size=(stream.height, stream.width))
    if t_j == t_i:
        raise ParameterError("warp interval must have nonzero length")
    factor = (t_ref - stream.t.astype(np.float64)) / float(t_j - t_i)
    pix = stream.y.astype(np.int64) * stream.width + stream.x
    fx, fy = np.take(flow.reshape(-1, 2), pix, axis=0).T
    return WarpedEvents(
        xw=stream.x + factor * fx,
        yw=stream.y + factor * fy,
        p=stream.p.copy(),
        width=stream.width,
        height=stream.height,
        t_ref=float(t_ref),
    )


def accumulate_iwe(warped: WarpedEvents, splat: str = "bilinear") -> np.ndarray:
    """Rasterize warped events into an (H, W) image of event counts.

    Bilinear splatting spreads each unit of mass over the four neighboring
    pixels; mass falling outside the sensor is discarded.
    """
    if splat not in SPLAT_MODES:
        raise ParameterError(f"splat must be one of {SPLAT_MODES}")
    h, w = warped.height, warped.width
    img = np.zeros((h, w))
    flat = img.reshape(-1)
    if splat == "nearest":
        xi = np.rint(warped.xw).astype(np.int64)
        yi = np.rint(warped.yw).astype(np.int64)
        ok = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        np.add.at(flat, yi[ok] * w + xi[ok], 1.0)
        return img
    x0 = np.floor(warped.xw).astype(np.int64)
    y0 = np.floor(warped.yw).astype(np.int64)
    fx = warped.xw - x0
    fy = warped.yw - y0
    # in_x[d] says whether column x0 + d lies on the sensor; in_y likewise.
    in_x = ((x0 >= 0) & (x0 < w), (x0 >= -1) & (x0 < w - 1))
    in_y = ((y0 >= 0) & (y0 < h), (y0 >= -1) & (y0 < h - 1))
    base = y0 * w + x0
    for dx, dy, wgt in (
        (0, 0, (1 - fx) * (1 - fy)),
        (1, 0, fx * (1 - fy)),
        (0, 1, (1 - fx) * fy),
        (1, 1, fx * fy),
    ):
        ok = in_x[dx] & in_y[dy] & (wgt > 0)
        np.add.at(flat, base[ok] + (dy * w + dx), wgt[ok])
    return img


def contrast(image: np.ndarray) -> float:
    """Variance of an image over the full sensor domain."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ShapeError(f"expected (H, W) image, got {image.shape}")
    return float(np.var(image))


def two_sided_components(
    stream: EventStream,
    flow: np.ndarray,
    t_i: float,
    t_j: float,
    splat: str = "bilinear",
) -> tuple[float, float]:
    """Warped-image variance at each interval endpoint, as (var_i, var_j)."""
    parts = []
    for t_ref in (t_i, t_j):
        warped = warp_events(stream, flow, t_ref, t_i, t_j)
        parts.append(contrast(accumulate_iwe(warped, splat=splat)))
    return parts[0], parts[1]


def two_sided_score(
    stream: EventStream,
    flow: np.ndarray,
    t_i: float,
    t_j: float,
    splat: str = "bilinear",
) -> float:
    """Sum of warped-image variances at both interval endpoints."""
    var_i, var_j = two_sided_components(stream, flow, t_i, t_j, splat=splat)
    return var_i + var_j


def select_best(
    candidates: list[EventStream],
    flow: np.ndarray,
    t_i: float,
    t_j: float,
    splat: str = "bilinear",
) -> int:
    """Index of the candidate with the highest two-sided score.

    Ties resolve to the lowest index.
    """
    if not candidates:
        raise ParameterError("at least one candidate stream required")
    scores = [two_sided_score(s, flow, t_i, t_j, splat=splat) for s in candidates]
    return int(np.argmax(scores))

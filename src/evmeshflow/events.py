"""Event streams and the frame-driven event simulator.

The simulator follows the usual contrast-threshold model: per pixel it
tracks a log-intensity reference level, assumes log intensity varies
linearly in time between consecutive frames, and emits one event for every
crossing of reference +/- threshold, advancing the reference by one
threshold step per event.  A change of k thresholds within one interval
therefore emits floor(k) events with linearly interpolated timestamps, and
sub-threshold residue carries over to later frames instead of being reset.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError, ParameterError, ShapeError
from .scene import Scene, render_frame


@dataclass
class EventStream:
    """A time-sorted batch of events on a fixed sensor.

    Events are stored as parallel arrays (x, y, t, p); t is integer
    microseconds, p is -1 or +1.  Ties in t are ordered by (y, x, p).
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    p: np.ndarray
    width: int
    height: int
    t_start: int
    t_end: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.int32)
        self.y = np.asarray(self.y, dtype=np.int32)
        self.t = np.asarray(self.t, dtype=np.int64)
        self.p = np.asarray(self.p, dtype=np.int8)
        n = len(self.t)
        if not (len(self.x) == len(self.y) == len(self.p) == n):
            raise ShapeError("event component arrays must have equal length")
        if self.width < 1 or self.height < 1:
            raise ParameterError("sensor dimensions must be positive")
        if self.t_end < self.t_start:
            raise DataError("stream requires t_start <= t_end")
        if n:
            if np.any(np.diff(self.t) < 0):
                raise DataError("events must be sorted by timestamp")
            if self.t[0] < self.t_start or self.t[-1] > self.t_end:
                raise DataError("event timestamps outside [t_start, t_end]")
            if (
                self.x.min() < 0
                or self.x.max() >= self.width
                or self.y.min() < 0
                or self.y.max() >= self.height
            ):
                raise DataError("event coordinates outside the sensor")
            if not np.all(np.abs(self.p) == 1):
                raise DataError("polarities must be -1 or +1")

    def __len__(self) -> int:
        return len(self.t)

    def select(self, mask: np.ndarray) -> "EventStream":
        """Subset of the stream; order and time span are preserved."""
        mask = np.asarray(mask)
        return replace(
            self, x=self.x[mask], y=self.y[mask], t=self.t[mask], p=self.p[mask]
        )


@dataclass
class FrameSequence:
    """Intensity frames (N, H, W) with strictly increasing times in seconds."""

    values: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.values.ndim != 3 or self.values.shape[0] < 1:
            raise ShapeError(f"expected (N, H, W) frames, got {self.values.shape}")
        if self.times.shape != (self.values.shape[0],):
            raise ShapeError("one timestamp per frame required")
        if np.any(np.diff(self.times) <= 0):
            raise DataError("frame timestamps must be strictly increasing")
        if not np.all(self.values > 0.0):
            raise DataError("intensities must be positive for log conversion")

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]


def render_sequence(scene: Scene, times) -> FrameSequence:
    """Render a scene at the given times (seconds) into a FrameSequence."""
    frames = np.stack([render_frame(scene, float(t)) for t in times])
    return FrameSequence(frames, np.asarray(times, dtype=np.float64))


def _us(seconds: np.ndarray) -> np.ndarray:
    # Half-to-even rounding keeps timestamps reproducible across platforms.
    return np.rint(np.asarray(seconds, dtype=np.float64) * 1e6).astype(np.int64)


def simulate(frames: FrameSequence, threshold: float) -> EventStream:
    """Run the threshold-crossing simulator over a frame sequence.

    Args:
        frames: positive intensity frames with strictly increasing times.
        threshold: log-intensity contrast step, must be > 0.

    Returns:
        EventStream sorted by (t, y, x, p), timestamps in microseconds.
    """
    if not threshold > 0.0:
        raise ParameterError("threshold must be positive")
    logs = np.log(frames.values)
    n = logs.shape[0]
    t_start = int(_us(frames.times[:1])[0])
    t_end = int(_us(frames.times[-1:])[0])

    xs_all, ys_all, ts_all, ps_all = [], [], [], []
    ref = logs[0].copy()
    for k in range(n - 1):
        la, lb = logs[k], logs[k + 1]
        ta, tb = float(frames.times[k]), float(frames.times[k + 1])
        while True:
            fired = False
            for sign in (1, -1):
                if sign > 0:
                    mask = lb >= ref + threshold
                else:
                    mask = lb <= ref - threshold
                if not mask.any():
                    continue
                fired = True
                target = ref[mask] + sign * threshold
                frac = (target - la[mask]) / (lb[mask] - la[mask])
                te = ta + frac * (tb - ta)
                iy, ix = np.nonzero(mask)
                xs_all.append(ix)
                ys_all.append(iy)
                ts_all.append(te)
                ps_all.append(np.full(len(ix), sign, dtype=np.int8))
                ref[mask] = target
            if not fired:
                break

    if not xs_all:
        empty = np.empty(0, dtype=np.int64)
        return EventStream(
            empty, empty, empty, empty, frames.width, frames.height, t_start, t_end
        )
    x = np.concatenate(xs_all)
    y = np.concatenate(ys_all)
    t = _us(np.concatenate(ts_all))
    p = np.concatenate(ps_all)
    order = np.lexsort((p, x, y, t))
    return EventStream(
        x[order], y[order], t[order], p[order],
        frames.width, frames.height, t_start, t_end,
    )


def multi_density_sweep(frames: FrameSequence, thresholds) -> list[EventStream]:
    """Simulate one stream per contrast threshold, in the input order."""
    thresholds = [float(c) for c in thresholds]
    if not thresholds:
        raise ParameterError("at least one threshold required")
    return [simulate(frames, c) for c in thresholds]


def shuffle_timestamps(stream: EventStream, rng: np.random.Generator) -> EventStream:
    """Permute event times across events, then restore sort order.

    The result has the same coordinates, polarities, and timestamp multiset
    but no space-time coherence; it serves as a degradation baseline when
    ranking candidate streams.
    """
    t = rng.permutation(stream.t)
    order = np.lexsort((stream.p, stream.x, stream.y, t))
    return replace(
        stream, x=stream.x[order], y=stream.y[order], t=t[order], p=stream.p[order]
    )


def _normalized_times(stream: EventStream) -> np.ndarray:
    span = stream.t_end - stream.t_start
    if span <= 0:
        return np.zeros(len(stream))
    return (stream.t - stream.t_start) / float(span)


def _check_subsample_args(stream, flow, keep_ratio, tolerance):
    flow = np.asarray(flow, dtype=np.float64)
    if flow.shape != (stream.height, stream.width, 2):
        raise ShapeError(
            f"flow shape {flow.shape} does not match sensor "
            f"({stream.height}, {stream.width}, 2)"
        )
    if not np.all(np.isfinite(flow)):
        raise DataError("flow must be finite")
    if not 0.0 < keep_ratio <= 1.0:
        raise ParameterError("keep_ratio must lie in (0, 1]")
    if not tolerance >= 0.0:
        raise ParameterError("tolerance must be >= 0")
    return flow


def _near_seed_paths(stream, flow, spacing, tolerance, candidates):
    """Mask of the candidates within `tolerance` px of a seed path u + s * flow(u)."""
    sy, sx = np.mgrid[: stream.height : spacing, : stream.width : spacing].reshape(2, -1)
    seed_pos = np.stack([sx, sy], axis=1).astype(np.float64)
    seed_flow = flow[sy, sx]

    s_norm = _normalized_times(stream)
    ev_pos = np.stack([stream.x, stream.y], axis=1).astype(np.float64)
    idx = np.nonzero(candidates)[0]
    keep = np.zeros(len(stream), dtype=bool)
    # The stream is time-sorted, so each timestamp is one run of candidates,
    # and the events in it share the advected seed cloud.
    _, starts = np.unique(stream.t[idx], return_index=True)
    bounds = np.append(starts, len(idx))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        run = idx[lo:hi]
        cloud = seed_pos + s_norm[run[0]] * seed_flow
        dist, _ = cKDTree(cloud).query(ev_pos[run])
        keep[run] = dist <= tolerance
    return keep


def spatial_guided_subsample(
    stream: EventStream,
    flow: np.ndarray,
    keep_ratio: float,
    tolerance: float = 0.5,
) -> EventStream:
    """Keep events near the traced paths of a uniform lattice of seed pixels.

    Seed pixels sit on a lattice with phase (0, 0) whose spacing makes the
    seeded fraction approximately keep_ratio.  Each seed traces the segment
    u + s * flow(u) for s in [0, 1]; an event at normalized stream time s
    survives iff it lies within `tolerance` px (Euclidean) of some traced
    path evaluated at s.  A keep_ratio of 1 seeds every pixel and returns
    the stream unchanged.
    """
    flow = _check_subsample_args(stream, flow, keep_ratio, tolerance)
    spacing = max(1, round(1.0 / np.sqrt(keep_ratio)))
    candidates = np.ones(len(stream), dtype=bool)
    if spacing == 1:
        return stream.select(candidates)
    return stream.select(_near_seed_paths(stream, flow, spacing, tolerance, candidates))


def temporal_guided_subsample(
    stream: EventStream,
    flow: np.ndarray,
    keep_ratio: float,
    tolerance: float = 0.5,
) -> EventStream:
    """Keep events at a uniform subset of timestamps, gated by trajectories.

    The stream's distinct timestamps are subsampled uniformly at
    keep_ratio (the first is always retained).  Events at retained
    timestamps survive iff they lie within `tolerance` px of the traced
    path of some pixel, where every pixel seeds the path u + s * flow(u)
    at the event's normalized stream time s.  An infinite tolerance keeps
    all events at the retained timestamps.
    """
    flow = _check_subsample_args(stream, flow, keep_ratio, tolerance)
    uniq, inverse = np.unique(stream.t, return_inverse=True)
    idx = np.arange(len(uniq))
    kept_stamp = np.floor(idx * keep_ratio) > np.floor((idx - 1) * keep_ratio)
    return stream.select(_near_seed_paths(stream, flow, 1, tolerance, kept_stamp[inverse]))

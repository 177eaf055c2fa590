"""Event streams and the frame-driven event simulator.

The simulator follows the usual contrast-threshold model: per pixel it
tracks a log-intensity reference level, assumes log intensity varies
linearly in time between consecutive frames, and emits one event for every
crossing of reference +/- threshold, advancing the reference by one
threshold step per event.  A change of k thresholds within one interval
therefore emits floor(k) events with linearly interpolated timestamps, and
sub-threshold residue carries over to later frames instead of being reset.
Frames are (time, frame) pairs: a list, or a generator such as
`render_sequence`, which renders each frame when it is read.
`multi_density_sweep` is the one simulator and the one place frames are
checked: it reads, validates and logs each frame once, as it arrives, and
advances one reference array per threshold in lockstep, so the frame stack
is never built and memory does not grow with the frame count; `simulate`
is its one-threshold case.
The guided subsamplers find the seeds near each event by index arithmetic
on the seed lattice and need no scipy.

Every event-sized loop of the package (decoding sort keys here, voxels,
warping and splatting in `cmax`, EVT1 records in `io`) walks the events in
consecutive blocks of `_BLOCK` events from `_blocks`, so its temporaries are
block-sized and stay in cache; a stream of at most one block is one block.
`EventStream.blocks` yields those blocks of a stream's arrays, as
`io.Evt1File.blocks` does of a file's records.
Each event's result depends on that event alone, and every accumulation
still adds its terms pass by pass in event order, so the bytes do not
depend on the block size.
The sweep runs in the private generator `_swept_keys`: as each interval
closes, it sorts that interval's int64 sort keys into each threshold's
pending keys and yields those that no later event can precede, so the
yields concatenate to the globally sorted keys.  `multi_density_sweep`
concatenates them (8 bytes per event) and decodes each threshold in turn,
after its parts are freed: the decode writes each block's times over its
keys, so the stream's t is the key array and the decode adds only int32 x
and y and int8 p (9 bytes per event).  CLI `simulate` instead decodes the
yields as they come and appends them to EVT1 files through
`io.Evt1Writer`, so it holds no threshold's events.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, ParameterError, ShapeError, StepLimitError
from .errors import _check_flow, _check_image, _check_int
from .scene import Scene, render_frame


# Events per block of every event-sized loop: a block's float64 temporary
# is 128 KiB.
_BLOCK = 2**14


def _blocks(n: int):
    """Yield the consecutive slices of range(n) of `_BLOCK` events each, the last shorter."""
    for lo in range(0, n, _BLOCK):
        yield slice(lo, min(lo + _BLOCK, n))


@dataclass
class EventStream:
    """A time-sorted batch of events on a fixed sensor.

    Events are stored as parallel arrays (x, y, t, p); t is integer
    microseconds, p is -1 or +1.  Ties in t are ordered by (y, x, p).
    The span t_end - t_start is at most 2**63 - 1, so every difference of
    two in-span times fits an int64.
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
        x, y, t, p = (np.asarray(a) for a in (self.x, self.y, self.t, self.p))
        n = len(t)
        if not (len(x) == len(y) == len(p) == n):
            raise ShapeError("event component arrays must have equal length")
        # Values are checked before the narrowing casts below, which would
        # wrap or truncate them silently, and compared rather than
        # differenced, which would wrap an unsigned or narrow t.  bool is
        # not an integer dtype; an empty list, float64 to numpy, holds no
        # value to misstore.
        if n and not all(np.issubdtype(a.dtype, np.integer) for a in (x, y, t, p)):
            raise DataError("event components must be integer arrays")
        # The upper bounds keep every in-range x, y and t inside the casts below.
        int64 = np.iinfo(np.int64)
        self.width = _check_int(self.width, "sensor dimensions (width)", 1, 2**31)
        self.height = _check_int(self.height, "sensor dimensions (height)", 1, 2**31)
        self.t_start = _check_int(self.t_start, "t_start", int64.min, int64.max)
        self.t_end = _check_int(self.t_end, "t_end", int64.min, int64.max)
        # Block by block, so validation holds no event-sized temporary.
        if any(np.any(t[s.start + 1 : s.stop + 1] < t[s]) for s in _blocks(n - 1)):
            raise DataError("events must be sorted by timestamp")
        if self.t_end < self.t_start:
            raise DataError("stream requires t_start <= t_end")
        if self.t_end - self.t_start > int64.max:
            raise DataError(
                f"stream span {self.t_end - self.t_start} us exceeds 2**63 - 1"
            )
        if n:
            if t[0] < self.t_start or t[-1] > self.t_end:
                raise DataError("event timestamps outside [t_start, t_end]")
            if (
                x.min() < 0
                or x.max() >= self.width
                or y.min() < 0
                or y.max() >= self.height
            ):
                raise DataError("event coordinates outside the sensor")
            if not all(np.all(np.abs(p[s]) == 1) for s in _blocks(n)):
                raise DataError("polarities must be -1 or +1")
        self.x = x.astype(np.int32, copy=False)
        self.y = y.astype(np.int32, copy=False)
        self.t = t.astype(np.int64, copy=False)
        self.p = p.astype(np.int8, copy=False)

    def __len__(self) -> int:
        return len(self.t)

    def blocks(self):
        """Yield (s, x, y, t, p) for each `_blocks` slice s of the events, as views."""
        for s in _blocks(len(self)):
            yield s, self.x[s], self.y[s], self.t[s], self.p[s]

    def select(self, mask: np.ndarray) -> "EventStream":
        """Subset of the stream; order and time span are preserved."""
        mask = np.asarray(mask)
        return replace(
            self, x=self.x[mask], y=self.y[mask], t=self.t[mask], p=self.p[mask]
        )


def render_sequence(scene: Scene, times):
    """Yield (time, frame) pairs of a scene at the given times (seconds).

    A one-shot generator: each frame is rendered when it is read, so a
    simulation over it holds one frame at a time.
    """
    for t in times:
        t = float(t)
        yield t, render_frame(scene, t)


def _us(seconds: np.ndarray) -> np.ndarray:
    # Half-to-even rounding keeps timestamps reproducible across platforms.
    return np.rint(np.asarray(seconds, dtype=np.float64) * 1e6).astype(np.int64)


def _event_keys(t, pix, p, plane, t_start):
    """One int64 sort key ((t - t_start)*H*W + pix)*2 + (p > 0) per event.

    t is in microseconds and pix = y*W + x, so key order is (t, y, x, p)
    order, and equal keys are equal events.
    """
    return ((t - int(t_start)) * int(plane) + pix) * 2 + (p > 0)


def _check_key_span(span, width, height):
    """Raise ParameterError when keys over a `span` us span overflow int64.

    The keys of times t_start .. t_start + span on a W x H sensor reach
    (span + 1) * 2 * H * W - 1, which must not pass 2**63 - 1.
    """
    if (int(span) + 1) * 2 * int(width) * int(height) > np.iinfo(np.int64).max:
        raise ParameterError(
            f"a {span} us span on a {width}x{height} sensor "
            "overflows the int64 event sort key"
        )


def _decoded_keys(key, width, height, t_start):
    """Decode sorted event keys to int32 x and y, int64 t and int8 p.

    The keys are decoded block by block straight into the stream's dtypes,
    and each block's times overwrite its keys once its `p` and pixel are
    read, so the returned t is `key` itself: the decode allocates 9 bytes
    per event (x, y and p) beyond the key and block-sized temporaries.  A
    quotient and a subtraction give the remainder: int64 `np.divmod` by a
    scalar costs several times a floor division.
    """
    t_start, plane = int(t_start), int(width) * int(height)
    n = len(key)
    x, y = np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int32)
    p = np.empty(n, dtype=np.int8)
    for s in _blocks(n):
        p[s] = (key[s] & 1) * 2 - 1
        pix = key[s] >> 1
        dt = pix // plane
        pix -= dt * plane
        np.add(dt, t_start, out=key[s])
        row = pix // width
        y[s] = row
        x[s] = pix - row * width
    return x, y, key, p


def _sorted_events(key, width, height, t_start, t_end):
    """Sort event keys in place and decode them with `_decoded_keys`.

    Raises ParameterError when keys over [t_start, t_end] overflow int64,
    (t_end - t_start + 1) * 2 * H * W > 2**63 - 1; such keys have wrapped,
    so they are never decoded.
    """
    _check_key_span(int(t_end) - int(t_start), width, height)
    key.sort()
    return _decoded_keys(key, width, height, t_start)


# Events one threshold of a sweep may emit: 66x the 1,009,082 events of a
# 256x256, v = (40, -15) px/s, c = 0.03 sweep.
_EVENT_BUDGET = 2**26


def _interval_events(ref, gap, la, lb, ta, tb, threshold, cand):
    """Crossings of one interval as (flat pixels, seconds, +-1.0 signs), or None.

    `cand` holds every pixel that can fire (a superset is fine); the others
    keep their references.  Rounds run on signed levels: with s = +-1 a
    pixel's direction, s * ref steps up by `threshold` per event while it
    stays at or below s * lb.  Negation is exact and round-to-nearest is
    symmetric, so s * (ref + s * threshold) == s * ref + threshold exactly,
    and the targets, tests and timestamps equal those of stepping `ref`
    itself.  Each round after the first tests only the pixels that fired
    in the round before, carrying their levels forward, so `ref` is
    gathered and written once.  Timestamps are interpolated once, on all
    rounds.
    """
    sign = np.where(gap[cand] >= 0, 1.0, -1.0)
    level = sign * ref[cand]
    end = sign * lb[cand]
    up = level + threshold
    pos = np.flatnonzero(end >= up)
    if not pos.size:
        return None
    up, end = up[pos], end[pos]
    fired, ups = [], []
    while True:
        fired.append(pos)
        ups.append(up)
        level[pos] = up
        up = up + threshold
        keep = np.flatnonzero(end >= up)
        if not keep.size:
            break
        pos, up, end = pos[keep], up[keep], end[keep]
    ref[cand] = sign * level
    pos = np.concatenate(fired)
    pix, sign = cand[pos], sign[pos]
    target = sign * np.concatenate(ups)
    la, lb = la[pix], lb[pix]
    return pix, ta + (target - la) / (lb - la) * (tb - ta), sign


def _swept_keys(frames, thresholds):
    """Run the sweep, yielding each threshold's sorted event keys once they are final.

    After the interval [ta, tb] closes, its keys are merged into each
    threshold's sorted pending keys, and the keys whose time is below
    _us(tb) are yielded: ((H, W), t_start, _us(tb), ready), `ready` holding
    one sorted int64 key array per threshold.  The rest carry forward.
    Once the frames run out, a last yield holds every pending key, so the
    last yield's time is t_end.  Concatenated per threshold, the yields are
    the whole sweep's keys in sorted order.

    The cut is safe because no later event can sort before it.  A later
    interval [ta', tb'] has ta' >= tb, and its events have times
    te = ta' + frac * (tb' - ta') with frac = (target - la) / (lb - la) >= 0
    in float: a pixel fires only toward lb and its first target passes la
    (`_interval_events`' references stay within one threshold of la), so
    target - la has the sign of lb - la or is 0.  Rounding is monotone, so
    te >= ta' >= tb and _us(te) >= _us(tb).  Frames less than 1 us apart
    share a _us(tb), and their keys wait until a later time passes it.
    """
    thresholds = [float(c) for c in thresholds]
    if not thresholds:
        raise ParameterError("at least one threshold required")
    if not all(c > 0.0 for c in thresholds):
        raise ParameterError("threshold must be positive")
    shape = t_start = ta = la = None
    peak = 0.0
    refs, expected = None, [0.0] * len(thresholds)
    pending = [np.empty(0, dtype=np.int64) for _ in thresholds]
    emitted = [False] * len(thresholds)
    for tb, frame in frames:
        tb = float(tb)
        # False for NaN and inf; _us(tb) is an int64 whenever it holds.
        if not -(2.0**63) <= tb * 1e6 < 2.0**63:
            raise DataError(f"frame time {tb!r} s has no int64 microsecond count")
        frame = _check_image(frame, "frame", shape)
        if shape is None:
            shape, t_start = frame.shape, int(_us(tb))
        elif not tb > ta:
            raise DataError("frame timestamps must be strictly increasing")
        if not np.all(frame > 0.0):
            raise DataError("intensities must be positive for log conversion")
        lb = np.log(frame).ravel()
        # References stay within [-peak, peak] of the frames read so far,
        # so above its spacing every step moves a reference level.
        peak = max(peak, lb.max(), -lb.min())
        if not np.isfinite(peak):
            raise DataError("intensities must be finite")
        resolution = float(np.spacing(peak))
        for c in thresholds:
            if c <= resolution:
                raise ParameterError(
                    f"threshold {c!r} is at or below the float64 resolution "
                    f"of the log intensities ({resolution!r})"
                )
        if la is None:
            refs = [lb.copy() for _ in thresholds]
            # Per-pixel buffers, reused by every interval and threshold.
            gap, size = np.empty_like(lb), np.empty_like(lb)
            ta, la = tb, lb
            continue
        t_us = int(_us(tb))
        # The keys of times below t_us lie below this bound, the others at or above it.
        bound = (t_us - t_start) * 2 * lb.size
        ready = []
        for j, (c, ref) in enumerate(zip(thresholds, refs)):
            np.subtract(lb, ref, out=gap)
            np.abs(gap, out=size)
            # With S = spacing(peak + c), a pixel fires first when
            # s * lb >= fl(s * ref + c) >= s * ref + c - S / 2, and the
            # rounded |gap| is within S of |lb - ref|, so a pixel with
            # |gap| below fl(c - 2 * S) <= c - 1.5 * S cannot fire.
            cand = np.flatnonzero(size >= c - 2.0 * np.spacing(peak + c))
            # floor(size / c) is 0 off the candidates, and whole float64s
            # add exactly in any order below 2**53 (and stay above the
            # budget once past it), so the budget fails at the interval
            # where a sum over every pixel would.
            expected[j] += np.floor(size[cand] / c).sum()
            if expected[j] > _EVENT_BUDGET:
                raise StepLimitError(
                    f"threshold {c!r} would emit over {_EVENT_BUDGET} events"
                )
            events = _interval_events(ref, gap, la, lb, ta, tb, c, cand)
            emitted[j] |= events is not None
            if emitted[j]:
                # Before any key of this interval is computed, so none has wrapped.
                _check_key_span(t_us - t_start, shape[1], shape[0])
            key = pending[j]
            if events is not None:
                pix, te, sign = events
                key = np.concatenate((key, _event_keys(_us(te), pix, sign, lb.size, t_start)))
                key.sort()
            cut = int(np.searchsorted(key, bound)) if len(key) else 0
            ready.append(key[:cut])
            pending[j] = key[cut:].copy() if cut else key
        yield shape, t_start, t_us, ready
        ta, la = tb, lb
    if shape is None:
        raise ShapeError("no frames to simulate")
    yield shape, t_start, int(_us(ta)), pending


def multi_density_sweep(frames, thresholds) -> list[EventStream]:
    """Simulate one stream per contrast threshold in one pass over the frames.

    Each frame is validated and converted to log intensity once, as it
    arrives; one reference level per threshold then advances over the
    interval it closes, so the frames are never stacked and `frames` may
    be a generator.  Within an interval every pixel moves its reference
    toward the next frame's log intensity only, so its direction is fixed
    once (up when lb >= ref).  Crossings are emitted in rounds; a pixel
    that does not fire in a round keeps its reference and so cannot fire
    later in that interval, so each round tests only the pixels that fired
    in the one before.  Each interval's keys are sorted as it closes (see
    `_swept_keys`); the final ones are concatenated and decoded here.

    Args:
        frames: an iterable of (time in seconds, (H, W) intensity frame)
            pairs, such as `render_sequence`'s; times strictly increasing,
            intensities positive.
        thresholds: log-intensity contrast steps, each > 0.

    Returns:
        One EventStream per threshold, in the input order, sorted by
        (t, y, x, p), timestamps in microseconds.

    Raises:
        ShapeError: no frames, a frame that is not a non-empty 2-D array,
            or a frame whose shape differs from the first.
        DataError: an intensity <= 0, infinite or NaN; a time that is NaN,
            infinite or whose microsecond count overflows int64; or a time
            not above the previous frame's.
        ParameterError: no thresholds or one <= 0; a threshold at or below
            the float64 spacing of the largest |log intensity| read so far,
            where a reference level could stop moving (checked as each
            frame arrives, before the interval it closes is simulated); or
            events over a span too long for the sort key,
            (span_us + 1) * 2 * H * W > 2**63 - 1, checked at the first
            interval that closes past that span once the threshold has
            events, before that interval's keys are computed.
        StepLimitError: for one threshold, the crossings counted before
            each interval, floor(|lb - ref| / threshold) per pixel, add up
            to more than _EVENT_BUDGET = 2**26 events.
    """
    thresholds = list(thresholds)
    parts = [[] for _ in thresholds]
    for shape, t_start, t_end, ready in _swept_keys(frames, thresholds):
        for j, key in enumerate(ready):
            if len(key):
                parts[j].append(key)
    # The loop names hold the last yield's keys: drop them, so that each
    # threshold's parts are freed as its own decode starts.
    ready = key = None
    height, width = shape
    streams = []
    for j in range(len(parts)):
        if parts[j]:
            key = np.concatenate(parts[j])
            parts[j] = None
            x, y, t, p = _decoded_keys(key, width, height, t_start)
            key = None
        else:
            x = y = t = p = np.empty(0, dtype=np.int64)
        streams.append(EventStream(x, y, t, p, width, height, t_start, t_end))
    return streams


def simulate(frames, threshold: float) -> EventStream:
    """Run the threshold-crossing simulator for one threshold.

    The one-threshold case of `multi_density_sweep`, which documents the
    model, the accepted `frames` and the errors raised.  The resolution
    check runs on the running max|log intensity| as frames arrive, so a
    threshold too fine for a later frame fails there, after the budget
    check of the intervals before it.
    """
    return multi_density_sweep(frames, [threshold])[0]


def shuffle_timestamps(stream: EventStream, rng: np.random.Generator) -> EventStream:
    """Permute event times across events, then restore sort order.

    The result has the same coordinates, polarities, and timestamp multiset
    but no space-time coherence; it serves as a degradation baseline when
    ranking candidate streams.  Like `simulate`, it raises ParameterError
    when (t_end - t_start + 1) * 2 * H * W exceeds 2**63 - 1.
    """
    pix = stream.y.astype(np.int64) * stream.width + stream.x
    key = _event_keys(
        rng.permutation(stream.t), pix, stream.p, stream.width * stream.height,
        stream.t_start,
    )
    x, y, t, p = _sorted_events(
        key, stream.width, stream.height, stream.t_start, stream.t_end
    )
    return replace(stream, x=x, y=y, t=t, p=p)


def _normalized_times(stream: EventStream) -> np.ndarray:
    span = stream.t_end - stream.t_start
    if span <= 0:
        return np.zeros(len(stream))
    return (stream.t - stream.t_start) / float(span)


def _check_subsample_args(stream, flow, keep_ratio, tolerance):
    flow = _check_flow(flow, size=(stream.height, stream.width))
    if not 0.0 < keep_ratio <= 1.0:
        raise ParameterError("keep_ratio must lie in (0, 1]")
    if not tolerance >= 0.0:
        raise ParameterError("tolerance must be >= 0")
    return flow


# Candidate (event, seed) pairs tested per chunk; bounds the query's memory.
_PAIR_BUDGET = 2**14


def cKDTree(points):
    """`scipy.spatial.cKDTree(points)`, with scipy imported on the first call.

    Kept only for the benchmark's tracer, which wraps `events.cKDTree` to
    count trees built; nothing in the package calls it, so that count is 0.
    """
    from scipy.spatial import cKDTree as tree_cls

    return tree_cls(points)


def _lattice_box(q, r, spacing, n):
    """First index and size of the index box ceil((q - r) / spacing) ..
    floor((q + r) / spacing) of each q, clipped to the lattice's indices 0 .. n - 1.

    The box holds the indices i with |i * spacing - q| <= r, and no other
    up to the rounding of its bounds; one that misses the lattice has size 0.
    The box is exact only if r carries a slack for float rounding:
    `_near_seed_paths` adds M * 2**-47 >= 32 * spacing(M), where
    M = tolerance + max(width, height) + 4 * max|seed flow| bounds every
    value its distance test and its box bounds compute.  Each of those
    roundings errs by at most spacing(M + slack) / 2 <= spacing(M), and
    together they put a pair the float test accepts less than 11 * spacing(M)
    outside the exact box of its event.
    """
    first = np.clip(np.ceil((q - r) / spacing), 0, n).astype(np.intp)
    last = np.clip(np.floor((q + r) / spacing), -1, n - 1).astype(np.intp)
    return first, np.maximum(last - first + 1, 0)


@np.errstate(over="ignore")
def _near_seed_paths(stream, flow, spacing, tolerance, candidates):
    """Mask of the candidates within `tolerance` px of a seed path u + s * flow(u).

    With `centre` the per-component midrange of the seed flows and `reach`
    the largest |flow(u) - centre|, a path u + s * flow(u) stays within
    s * reach of u + s * centre, so every seed within `tolerance` of an event
    e at time s lies within r = tolerance + s * reach of q = e - s * centre.
    The seeds are the lattice (i, j) * spacing, so those seeds lie in the
    index box ceil((q - r) / spacing) .. floor((q + r) / spacing) per axis,
    clipped to the lattice, once r is widened by `_lattice_box`'s slack
    against float rounding: index arithmetic, with no spatial tree and no
    scipy.  The exact distance test then decides on the seeds of each box
    alone.  Seed flows near the float limit overflow to inf, which is why
    overflow does not warn here: an infinite radius spans the lattice and an
    infinite distance fails the test, as the exact values would.  `reach` is
    capped at the largest float, which still bounds every component's
    deviation, so that s = 0 times it is 0 and not NaN.
    """
    if np.isinf(tolerance):
        # Finite flow puts every candidate within reach of some seed.
        return candidates
    lattice = flow[::spacing, ::spacing]
    rows, cols = lattice.shape[:2]
    flow_x, flow_y = lattice.transpose(2, 0, 1).reshape(2, -1)
    centre_x = 0.5 * flow_x.max() + 0.5 * flow_x.min()
    centre_y = 0.5 * flow_y.max() + 0.5 * flow_y.min()
    reach = min(np.hypot(flow_x - centre_x, flow_y - centre_y).max(), np.finfo(np.float64).max)

    keep = np.zeros(len(stream), dtype=bool)
    idx = np.nonzero(candidates)[0]
    s = _normalized_times(stream)[idx]
    ex = stream.x[idx].astype(np.float64)
    ey = stream.y[idx].astype(np.float64)
    # _lattice_box's slack M * 2**-47, summed term by term so it cannot overflow.
    slack = (tolerance + max(stream.width, stream.height)) * 2.0**-47
    slack += np.abs(lattice).max() * 2.0**-45
    radius = tolerance + s * reach + slack
    first_x, size_x = _lattice_box(ex - s * centre_x, radius, spacing, cols)
    first_y, size_y = _lattice_box(ey - s * centre_y, radius, spacing, rows)
    counts = size_x * size_y
    # Chunks hold about _PAIR_BUDGET pairs each, whatever the flow's spread.
    start = np.cumsum(counts) - counts
    firsts = np.flatnonzero(np.diff(start // _PAIR_BUDGET, prepend=-1))
    for lo, hi in zip(firsts, np.append(firsts[1:], len(idx))):
        ev = np.repeat(np.arange(lo, hi), counts[lo:hi])
        # Each pair's row-major place in its event's box gives its seed (i, j).
        j, i = np.divmod(np.arange(len(ev)) + (start[lo] - start[ev]), size_x[ev])
        i += first_x[ev]
        j += first_y[ev]
        seed = j * cols + i
        se = s[ev]
        dx = ex[ev] - (i * spacing + se * flow_x[seed])
        dy = ey[ev] - (j * spacing + se * flow_y[seed])
        keep[idx[ev[np.sqrt(dx * dx + dy * dy) <= tolerance]]] = True
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

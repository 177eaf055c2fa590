"""Independent scalar reference implementations used by the test suite.

These deliberately avoid the vectorized code paths of the package: the
event oracle walks one pixel at a time, the correlation oracle uses plain
nested loops, and the subsampling oracles compare every event with every
seed.  Agreement between the two styles is what the equivalence tests
assert.
"""

import math

import numpy as np


def scalar_simulate(values, times, threshold):
    """Per-pixel threshold-crossing simulation.

    Returns a list of (t_us, y, x, p) tuples sorted by that tuple order,
    matching the package's (t, y, x, p) tie rule.
    """
    logs = np.log(np.asarray(values, dtype=np.float64))
    times = np.asarray(times, dtype=np.float64)
    n, height, width = logs.shape
    events = []
    for y in range(height):
        for x in range(width):
            ref = float(logs[0, y, x])
            for k in range(n - 1):
                la = float(logs[k, y, x])
                lb = float(logs[k + 1, y, x])
                ta = float(times[k])
                tb = float(times[k + 1])
                while True:
                    if lb >= ref + threshold:
                        sign = 1
                    elif lb <= ref - threshold:
                        sign = -1
                    else:
                        break
                    target = ref + sign * threshold
                    frac = (target - la) / (lb - la)
                    te = ta + frac * (tb - ta)
                    events.append((int(np.rint(te * 1e6)), y, x, sign))
                    ref = target
    events.sort()
    return events


def naive_correlate(feat_a, feat_b, offsets, denom):
    """Nested-loop inner products with zero padding outside feat_b."""
    feat_a = np.asarray(feat_a, dtype=np.float64)
    feat_b = np.asarray(feat_b, dtype=np.float64)
    channels, height, width = feat_a.shape
    scores = np.zeros((len(offsets), height, width))
    for m, (dx, dy) in enumerate(offsets):
        for y in range(height):
            for x in range(width):
                yy = y + dy
                xx = x + dx
                if not (0 <= yy < height and 0 <= xx < width):
                    continue
                acc = 0.0
                for c in range(channels):
                    acc += feat_a[c, y, x] * feat_b[c, yy, xx]
                scores[m, y, x] = acc / denom
    return scores


def _near_some_path(stream, flow, seeds, i, tolerance):
    """Whether event i lies within tolerance of some seed path u + s*flow(u)."""
    span = stream.t_end - stream.t_start
    s = 0.0 if span <= 0 else (int(stream.t[i]) - stream.t_start) / float(span)
    ex = float(stream.x[i])
    ey = float(stream.y[i])
    nearest = math.inf
    for ux, uy in seeds:
        dx = ex - (ux + s * float(flow[uy, ux, 0]))
        dy = ey - (uy + s * float(flow[uy, ux, 1]))
        nearest = min(nearest, math.sqrt(dx * dx + dy * dy))
    return nearest <= tolerance


def spatial_keep_mask(stream, flow, keep_ratio, tolerance):
    """Brute-force keep mask of spatial_guided_subsample."""
    spacing = max(1, round(1.0 / math.sqrt(keep_ratio)))
    if spacing == 1:
        return np.ones(len(stream), dtype=bool)
    seeds = [
        (ux, uy)
        for uy in range(0, stream.height, spacing)
        for ux in range(0, stream.width, spacing)
    ]
    return np.array(
        [_near_some_path(stream, flow, seeds, i, tolerance) for i in range(len(stream))],
        dtype=bool,
    )


def temporal_keep_mask(stream, flow, keep_ratio, tolerance):
    """Brute-force keep mask of temporal_guided_subsample."""
    stamps = sorted({int(t) for t in stream.t})
    kept = {
        stamp
        for k, stamp in enumerate(stamps)
        if math.floor(k * keep_ratio) > math.floor((k - 1) * keep_ratio)
    }
    seeds = [(ux, uy) for uy in range(stream.height) for ux in range(stream.width)]
    return np.array(
        [
            int(stream.t[i]) in kept and _near_some_path(stream, flow, seeds, i, tolerance)
            for i in range(len(stream))
        ],
        dtype=bool,
    )

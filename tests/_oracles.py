"""Independent scalar reference implementations used by the test suite.

These deliberately avoid the vectorized code paths of the package: the
event oracle walks one pixel at a time, the IWE and voxel oracles add one
event at a time, the correlation oracle uses plain nested loops, and the
subsampling oracles compare every event with every seed.  The
adaptive-sampling audits evaluate every pixel of the dense velocity and
flow fields, and the rendering oracle samples at dense np.mgrid
coordinates.  Agreement between the two styles is what the equivalence
tests assert.
"""

import math

import numpy as np
from scipy.linalg import expm

from evmeshflow import flow_between, seeded_rng, velocity_field
from evmeshflow.sampling import bilinear_sample_wrapped
from evmeshflow.scene import _OCTAVE_GAINS, _OCTAVE_SIZES


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


def dense_peak_speed(scene, t):
    """Peak pixel speed over every pixel of the velocity field."""
    vel = velocity_field(scene, t)
    return float(np.hypot(vel[..., 0], vel[..., 1]).max())


def dense_peak_displacement(scene, t_a, t_b):
    """Peak displacement over every pixel of the flow, both directions."""
    fwd = flow_between(scene, t_a, t_b)
    bwd = flow_between(scene, t_b, t_a)
    mag_f = np.hypot(fwd[..., 0], fwd[..., 1]).max()
    mag_b = np.hypot(bwd[..., 0], bwd[..., 1]).max()
    return float(max(mag_f, mag_b))


def scalar_accumulate_iwe(warped, splat):
    """IWE of unit event counts, built one event at a time in the package's order.

    Each corner (0, 0), (1, 0), (0, 1), (1, 1) takes its pass over all
    events, so every pixel receives its terms in the same order as in
    accumulate_iwe; zero-weight corners and off-sensor pixels add nothing.
    """
    width, height = warped.width, warped.height
    img = np.zeros((height, width))
    events = [(float(xw), float(yw)) for xw, yw in zip(warped.xw, warped.yw)]
    if splat == "nearest":
        for xw, yw in events:
            xi, yi = round(xw), round(yw)
            if 0 <= xi < width and 0 <= yi < height:
                img[yi, xi] += 1.0
        return img
    for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)):
        for xw, yw in events:
            x0, y0 = math.floor(xw), math.floor(yw)
            fx, fy = xw - x0, yw - y0
            wgt = (fx if dx else 1 - fx) * (fy if dy else 1 - fy)
            xi, yi = x0 + dx, y0 + dy
            if 0 <= xi < width and 0 <= yi < height and wgt > 0:
                img[yi, xi] += wgt
    return img


def scalar_voxelize(stream, bins):
    """Voxel grid built one event at a time: every lower bin, then every upper one."""
    grid = np.zeros((bins, stream.height, stream.width))
    if not len(stream):
        return grid
    t0, tn = int(stream.t[0]), int(stream.t[-1])
    parts = []
    for x, y, t, p in zip(stream.x, stream.y, stream.t, stream.p):
        coord = (int(t) - t0) / float(tn - t0) * (bins - 1) if tn > t0 else 0.0
        b0 = min(max(math.floor(coord), 0), bins - 1)
        parts.append((int(x), int(y), float(p), b0, coord - b0))
    for x, y, pol, b0, w1 in parts:
        grid[b0, y, x] += pol * (1.0 - w1)
    for x, y, pol, b0, w1 in parts:
        if b0 + 1 < bins and w1 > 0:
            grid[b0 + 1, y, x] += pol * w1
    return grid


def scalar_bilinear_sample(values, xs, ys, wrap):
    """Bilinear samples of a (H, W) grid, one position at a time.

    Clamped (wrap=False) positions clip to the grid and read edge values;
    wrapped ones reduce modulo the grid size. Each sample sums its four
    corners in the package's term and operand order, so the result must
    match bilinear_sample and bilinear_sample_wrapped byte for byte.
    """
    height, width = values.shape
    out = []
    for x, y in zip(xs, ys):
        x, y = float(x), float(y)
        if wrap:
            x, y = x % width, y % height
            x0, y0 = math.floor(x), math.floor(y)
            fx, fy = x - x0, y - y0
            x0, y0 = x0 % width, y0 % height
            x1, y1 = (x0 + 1) % width, (y0 + 1) % height
        else:
            x, y = min(max(x, 0.0), width - 1.0), min(max(y, 0.0), height - 1.0)
            x0, y0 = math.floor(x), math.floor(y)
            x1, y1 = min(x0 + 1, width - 1), min(y0 + 1, height - 1)
            fx, fy = x - x0, y - y0
        gx, gy = 1.0 - fx, 1.0 - fy
        out.append(
            float(values[y0, x0]) * gx * gy
            + float(values[y0, x1]) * fx * gy
            + float(values[y1, x0]) * gx * fy
            + float(values[y1, x1]) * fx * fy
        )
    return np.array(out, dtype=np.float64)


def dense_texture(seed, height, width, floor):
    """The scene texture sampled at dense np.mgrid coordinates."""
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    acc = np.zeros((height, width))
    for octave, (size, gain) in enumerate(zip(_OCTAVE_SIZES, _OCTAVE_GAINS)):
        coarse = seeded_rng(seed, octave).standard_normal((size, size))
        acc += gain * bilinear_sample_wrapped(coarse, xs * size / width, ys * size / height)
    span = acc.max() - acc.min()
    if span == 0.0:
        return np.full((height, width), 0.5 * (floor + 1.0))
    return floor + (1.0 - floor) * (acc - acc.min()) / span


def dense_render(scene, t):
    """render_frame with every source coordinate computed at full (H, W) size."""
    tex = dense_texture(scene.texture_seed, scene.height, scene.width, scene.intensity_floor)
    ys, xs = np.mgrid[0 : scene.height, 0 : scene.width].astype(np.float64)
    if scene.motion.kind == "translation":
        ox, oy = scene.motion.offset(t)
        return bilinear_sample_wrapped(tex, xs - ox, ys - oy)
    inv = np.linalg.inv(expm(t * scene.motion.generator()))
    w0 = inv[0, 0] * xs + inv[0, 1] * ys + inv[0, 2]
    w1 = inv[1, 0] * xs + inv[1, 1] * ys + inv[1, 2]
    w2 = inv[2, 0] * xs + inv[2, 1] * ys + inv[2, 2]
    return bilinear_sample_wrapped(tex, w0 / w2, w1 / w2)

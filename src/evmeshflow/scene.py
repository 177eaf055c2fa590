"""Synthetic textured scenes with analytically known motion.

A scene is a periodic band-limited texture observed through a smooth
time-dependent warp.  Because the warp has a closed form, the optical flow
between any two instants is known exactly, which makes scenes usable as
ground-truth generators for the event simulator and the flow tooling
downstream.

Coordinates are pixel units: x runs along the width, y along the height,
and pixel (x, y) samples the continuous plane at exactly (x, y).  Content
that leaves the texture wraps around toroidally, so every rendered pixel is
always defined.  Affine and homography warps come from `scipy.linalg.expm`,
imported on the first matrix-motion call; translation scenes never load scipy.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DataError, ParameterError, RangeError, StepLimitError, _check_int
from .sampling import _pixel_axes, bilinear_sample

_OCTAVE_SIZES = (4, 8, 16, 32)
_OCTAVE_GAINS = (1.0, 0.5, 0.25, 0.125)
_INTENSITY_FLOOR = 1e-3  # darkest texture value; keeps log intensity finite
_MAX_STEPS = 100_000  # adaptive_timestamps gives up beyond this many frames
_WRAP_PAD = 2  # wrapped rows and columns appended to every periodic grid

MOTION_KINDS = ("translation", "affine", "homography")


def seeded_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a counted-stream generator: one master seed, many streams."""
    seed, stream = _check_int(seed, "seed"), _check_int(stream, "stream")
    key = np.array([seed % (2**64), stream % (2**64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class MotionSpec:
    """Parametric scene motion.

    kind "translation" uses coefficients (vx, vy[, ax, ay]): the texture
    offset is v*t + 0.5*a*t^2, so the velocity field is spatially constant.

    kind "affine" uses the 6 generator coefficients
    (a11, a12, tx, a21, a22, ty) of the stationary velocity field
    du/dt = A*u + b; positions evolve as the matrix exponential of the
    generator, which keeps the map invertible for all t.

    kind "homography" extends the generator with a projective row
    (g31, g32), making 8 coefficients in total.
    """

    kind: str
    coefficients: tuple[float, ...]

    def __post_init__(self):
        # Stored as a tuple of floats so that specs hash (the matrix cache
        # keys on them) and compare equal whatever sequence was passed.
        coefficients = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coefficients)
        if self.kind not in MOTION_KINDS:
            raise ParameterError(f"unknown motion kind {self.kind!r}")
        n = len(self.coefficients)
        if self.kind == "translation" and n not in (2, 4):
            raise ParameterError("translation takes (vx, vy) or (vx, vy, ax, ay)")
        if self.kind == "affine" and n != 6:
            raise ParameterError("affine takes 6 generator coefficients")
        if self.kind == "homography" and n != 8:
            raise ParameterError("homography takes 8 generator coefficients")
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ParameterError("motion coefficients must be finite")

    def _translation(self) -> tuple[float, float, float, float]:
        """(vx, vy, ax, ay); a translation without acceleration has a = 0."""
        if self.kind != "translation":
            raise ParameterError(f"{self.kind} motion has no translation offset or velocity")
        vx, vy = self.coefficients[:2]
        ax, ay = (self.coefficients[2:] if len(self.coefficients) == 4 else (0.0, 0.0))
        return vx, vy, ax, ay

    def offset(self, t: float) -> tuple[float, float]:
        """Translation offset at time t (translation kind only)."""
        vx, vy, ax, ay = self._translation()
        return (vx * t + 0.5 * ax * t * t, vy * t + 0.5 * ay * t * t)

    def velocity(self, t: float) -> tuple[float, float]:
        """Translation velocity at time t (translation kind only)."""
        vx, vy, ax, ay = self._translation()
        return (vx + ax * t, vy + ay * t)

    def generator(self) -> np.ndarray:
        """3x3 velocity-field generator (matrix kinds only)."""
        c = self.coefficients
        if self.kind == "affine":
            g = np.array([[c[0], c[1], c[2]], [c[3], c[4], c[5]], [0.0, 0.0, 0.0]])
        elif self.kind == "homography":
            g = np.array([[c[0], c[1], c[2]], [c[3], c[4], c[5]], [c[6], c[7], 0.0]])
        else:
            raise ParameterError("translation motion has no matrix generator")
        return g


@lru_cache(maxsize=4096)
def _matrix_at(motion: MotionSpec, t: float) -> np.ndarray:
    from scipy.linalg import expm  # loaded by the first matrix-motion scene

    return expm(t * motion.generator())


@dataclass(frozen=True)
class Scene:
    """A textured plane under parametric motion over [t_start, t_end]."""

    width: int
    height: int
    texture_seed: int
    motion: MotionSpec
    t_start: float = 0.0
    t_end: float = 1.0

    def __post_init__(self):
        _check_int(self.width, "scene width", 8)
        _check_int(self.height, "scene height", 8)
        _check_int(self.texture_seed, "texture_seed")
        if not -math.inf < self.t_start < self.t_end < math.inf:
            raise ParameterError("scene requires finite t_start < t_end")

    def check_time(self, t: float) -> None:
        if not (self.t_start <= t <= self.t_end):
            raise RangeError(
                f"time {t} outside scene range [{self.t_start}, {self.t_end}]"
            )


def _wrap_pad(grid: np.ndarray) -> np.ndarray:
    """An (H, W) periodic grid followed by its first _WRAP_PAD rows and columns."""
    return np.pad(grid, ((0, _WRAP_PAD), (0, _WRAP_PAD)), mode="wrap")


def _sample_torus(padded: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear read of a wrap-padded grid as a torus of its unpadded size.

    Positions are reduced modulo that size; np.mod may round a tiny
    negative position up to the size itself, and the second padded row
    and column then hold the wrapped neighbour, as on the torus.
    """
    height, width = padded.shape[0] - _WRAP_PAD, padded.shape[1] - _WRAP_PAD
    return bilinear_sample(padded, _mod_outside(x, width), _mod_outside(y, height))


def _mod_outside(v: np.ndarray, size: int) -> np.ndarray:
    """np.mod(v, size), computed only where v lies outside (0, size).

    np.mod returns every v in that open range unchanged, so the rest keep
    their bytes; zeros go through np.mod, which maps -0.0 to +0.0.
    """
    outside = ~((v > 0.0) & (v < size))
    if outside.any():
        v = v.copy()
        v[outside] = np.mod(v[outside], size)
    return v


@lru_cache(maxsize=64)
def _texture(seed: int, height: int, width: int) -> np.ndarray:
    """Periodic band-limited texture, wrap-padded for _sample_torus.

    The texture is a sum of smoothed random octaves.  Each octave is a
    coarse seeded noise grid upsampled with wrap-around bilinear
    interpolation, so the sum tiles seamlessly.  Values span exactly
    [_INTENSITY_FLOOR, 1]; the result has shape (H + _WRAP_PAD, W + _WRAP_PAD).
    """
    ys, xs = _pixel_axes(height, width)
    acc = np.zeros((height, width))
    for octave, (size, gain) in enumerate(zip(_OCTAVE_SIZES, _OCTAVE_GAINS)):
        coarse = _wrap_pad(seeded_rng(seed, octave).standard_normal((size, size)))
        acc += gain * _sample_torus(coarse, xs * size / width, ys * size / height)
    span = acc.max() - acc.min()
    if span == 0.0:
        return _wrap_pad(np.full((height, width), 0.5 * (_INTENSITY_FLOOR + 1.0)))
    return _wrap_pad(_INTENSITY_FLOOR + (1.0 - _INTENSITY_FLOOR) * (acc - acc.min()) / span)


def _project(m: np.ndarray, xs: np.ndarray, ys: np.ndarray, doing: str):
    """Apply the 3x3 homogeneous map m to the points (xs, ys)."""
    w0, w1, w2 = (m[k, 0] * xs + m[k, 1] * ys for k in range(3))
    w0 += m[0, 2]
    w1 += m[1, 2]
    w2 += m[2, 2]
    if not np.all(np.isfinite(w2)) or np.any(w2 <= 0.0):
        raise DataError(f"projective depth vanished while {doing} the motion")
    w0 /= w2
    w1 /= w2
    return w0, w1


def _source_coords(scene: Scene, t: float, xs: np.ndarray, ys: np.ndarray):
    """Texture coordinates that appear at image positions (xs, ys) at time t.

    Translation maps each axis on its own, so (1, W) and (H, 1) inputs give
    separable (1, W) and (H, 1) coordinates; the matrix kinds broadcast them
    to (H, W).
    """
    if scene.motion.kind == "translation":
        ox, oy = scene.motion.offset(t)
        return xs - ox, ys - oy
    return _project(np.linalg.inv(_matrix_at(scene.motion, t)), xs, ys, "inverting")


def render_frame(scene: Scene, t: float) -> np.ndarray:
    """Render the scene at time t as an (H, W) image in [_INTENSITY_FLOOR, 1]."""
    scene.check_time(t)
    tex = _texture(scene.texture_seed, scene.height, scene.width)
    ys, xs = _pixel_axes(scene.height, scene.width)
    return _sample_torus(tex, *_source_coords(scene, t, xs, ys))


def flow_at_points(
    scene: Scene, t_i: float, t_j: float, xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Displacement from t_i to t_j of the scene points at (xs, ys) at t_i."""
    scene.check_time(t_i)
    scene.check_time(t_j)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if scene.motion.kind == "translation":
        oxi, oyi = scene.motion.offset(t_i)
        oxj, oyj = scene.motion.offset(t_j)
        return (
            np.full_like(xs, oxj - oxi),
            np.full_like(ys, oyj - oyi),
        )
    m = _matrix_at(scene.motion, t_j) @ np.linalg.inv(_matrix_at(scene.motion, t_i))
    px, py = _project(m, xs, ys, "composing")
    px -= xs
    py -= ys
    return px, py


def flow_between(scene: Scene, t_i: float, t_j: float) -> np.ndarray:
    """Dense ground-truth flow field, shape (H, W, 2) with (u, v) last."""
    ys, xs = _pixel_axes(scene.height, scene.width)
    flow = np.empty((scene.height, scene.width, 2))
    flow[..., 0], flow[..., 1] = flow_at_points(scene, t_i, t_j, xs, ys)
    return flow


def _velocity_at_points(
    scene: Scene, t: float, xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Instantaneous velocity (px/s) at time t of the scene points at (xs, ys)."""
    if scene.motion.kind == "translation":
        vx, vy = scene.motion.velocity(t)
        return np.full_like(xs, vx), np.full_like(ys, vy)
    # The generator G defines a stationary velocity field on the image:
    # du/dt = G[:2] . [u, 1] - u * (G[2] . [u, 1]).
    g = scene.motion.generator()
    d0 = g[0, 0] * xs + g[0, 1] * ys + g[0, 2]
    d1 = g[1, 0] * xs + g[1, 1] * ys + g[1, 2]
    d2 = g[2, 0] * xs + g[2, 1] * ys + g[2, 2]
    return d0 - xs * d2, d1 - ys * d2


def _audit_points(scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    """Pixels whose velocity and flow norms reach the peak over the image.

    Translation and affine scenes audit the 4 corner pixels.  Their velocity
    and both flows are affine maps of the position, and the norm of an affine
    map is convex, so its maximum over the pixel rectangle lies at a corner;
    a dense audit can only add rounding noise along a tied edge.  Homography
    flows are not affine in the position, so those scenes audit every pixel.
    """
    if scene.motion.kind == "homography":
        ys, xs = _pixel_axes(scene.height, scene.width)
        return xs, ys
    right, bottom = scene.width - 1.0, scene.height - 1.0
    return np.array([0.0, right, 0.0, right]), np.array([0.0, 0.0, bottom, bottom])


def _peak_speed(scene: Scene, t: float) -> float:
    vx, vy = _velocity_at_points(scene, t, *_audit_points(scene))
    return float(np.hypot(vx, vy).max())


def _peak_displacement(scene: Scene, t_a: float, t_b: float) -> float:
    xs, ys = _audit_points(scene)
    mag_f = np.hypot(*flow_at_points(scene, t_a, t_b, xs, ys)).max()
    mag_b = np.hypot(*flow_at_points(scene, t_b, t_a, xs, ys)).max()
    return float(max(mag_f, mag_b))


def adaptive_timestamps(scene: Scene, t_i: float, t_j: float) -> list[float]:
    """Frame times such that no pixel moves more than one pixel per step.

    Marches from t_i taking steps of 1 / (peak pixel speed); each candidate
    step is audited against the exact flow in both directions and shrunk if
    the true peak displacement exceeds one pixel (a 1e-9 px allowance
    absorbs float roundoff).  The last interval may be shorter so the final
    timestamp is exactly t_j.  Zero motion yields [t_i, t_j].

    Both audits evaluate the 4 corner pixels of a translation or affine
    scene, where the peak of an affine field lies, and every pixel of a
    homography scene.
    """
    scene.check_time(t_i)
    scene.check_time(t_j)
    if not t_i < t_j:
        raise ParameterError("adaptive sampling requires t_i < t_j")
    span = t_j - t_i
    snap = 1e-9 * span
    times = [t_i]
    t = t_i
    while t < t_j:
        if len(times) > _MAX_STEPS:
            raise StepLimitError(
                f"adaptive sampling exceeded {_MAX_STEPS} steps; motion too fast"
            )
        speed = _peak_speed(scene, t)
        nxt = t_j if speed <= 0.0 else t + 1.0 / speed
        if nxt >= t_j - snap:
            nxt = t_j
        for _ in range(64):
            disp = _peak_displacement(scene, t, nxt)
            if disp <= 1.0 + 1e-9:
                break
            nxt = t + (nxt - t) * 0.999 / disp
            if nxt <= t:
                raise DataError("motion too fast to resolve at float precision")
        else:
            raise StepLimitError("step shrink failed to meet the 1 px bound")
        times.append(nxt)
        t = nxt
    return times

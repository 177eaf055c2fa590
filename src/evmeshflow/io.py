"""Binary containers and image formats for pipeline artifacts.

All multi-byte fields are little-endian except inside PGM/PPM payloads,
which follow the netpbm convention (16-bit samples most significant byte
first).  Readers validate magics and sizes and raise FormatError on
malformed input rather than guessing.
"""

import csv
import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, ParameterError, ShapeError
from .events import EventStream

_EVT1_HEADER = struct.Struct("<4sHHQ")
_EVT1_MAX_SIDE = 65535  # width, height and coordinates are stored as uint16
_EVT1_RECORD = np.dtype(
    {
        "names": ["x", "y", "t", "p"],
        "formats": ["<u2", "<u2", "<i8", "i1"],
        "offsets": [0, 2, 4, 12],
        "itemsize": 16,
    }
)
_F32_HEADER = struct.Struct("<4s2I")  # magic, then two uint32 dims


def write_evt1(path, stream: EventStream) -> None:
    """Write an event stream: 16-byte header, then 16-byte event records."""
    if stream.width > _EVT1_MAX_SIDE or stream.height > _EVT1_MAX_SIDE:
        raise ParameterError(
            f"EVT1 holds sensors up to {_EVT1_MAX_SIDE} px per side, "
            f"got {stream.width}x{stream.height}"
        )
    records = np.zeros(len(stream), dtype=_EVT1_RECORD)
    records["x"] = stream.x
    records["y"] = stream.y
    records["t"] = stream.t
    records["p"] = stream.p
    with open(path, "wb") as fh:
        fh.write(_EVT1_HEADER.pack(b"EVT1", stream.width, stream.height, len(stream)))
        fh.write(records.tobytes())


def read_evt1(path) -> EventStream:
    blob = Path(path).read_bytes()
    if len(blob) < _EVT1_HEADER.size:
        raise FormatError("EVT1 file truncated before header")
    magic, width, height, count = _EVT1_HEADER.unpack_from(blob)
    if magic != b"EVT1":
        raise FormatError(f"bad EVT1 magic {magic!r}")
    body = blob[_EVT1_HEADER.size :]
    if len(body) != count * _EVT1_RECORD.itemsize:
        raise FormatError("EVT1 payload size does not match header count")
    records = np.frombuffer(body, dtype=_EVT1_RECORD)
    t = records["t"].astype(np.int64)
    if np.any(np.diff(t) < 0):
        raise FormatError("EVT1 timestamps are not sorted")
    try:
        return EventStream(
            records["x"].astype(np.int32),
            records["y"].astype(np.int32),
            t,
            records["p"].astype(np.int8),
            width,
            height,
            int(t[0]) if count else 0,
            int(t[-1]) if count else 0,
        )
    except (DataError, ParameterError) as exc:
        raise FormatError(f"bad EVT1 records: {exc}") from exc


def _write_f32(path, magic: bytes, dims, values) -> None:
    """Write magic, uint32 dims, then values as little-endian float32."""
    with np.errstate(over="ignore"):
        data = np.ascontiguousarray(values, dtype="<f4")
    if not np.isfinite(data).all():
        raise DataError(f"{magic.decode()} values must be finite float32")
    with open(path, "wb") as fh:
        fh.write(_F32_HEADER.pack(magic, *dims))
        fh.write(data.tobytes())


def _read_f32(path, magic: bytes, shape_of) -> np.ndarray:
    """Read a _write_f32 container; shape_of maps the 2 header dims to a shape."""
    name = magic.decode()
    blob = Path(path).read_bytes()
    if len(blob) < _F32_HEADER.size:
        raise FormatError(f"{name} file truncated before header")
    found, *dims = _F32_HEADER.unpack_from(blob)
    if found != magic:
        raise FormatError(f"bad {name} magic {found!r}")
    shape = shape_of(*dims)
    body = blob[_F32_HEADER.size :]
    if len(body) != 4 * math.prod(shape):
        raise FormatError(f"{name} payload size mismatch")
    values = np.frombuffer(body, dtype="<f4")
    if not np.isfinite(values).all():
        raise FormatError(f"{name} values must be finite")
    return values.astype(np.float64).reshape(shape)


def write_flo1(path, flow: np.ndarray) -> None:
    flow = np.asarray(flow)
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ShapeError(f"expected (H, W, 2) flow, got {flow.shape}")
    height, width = flow.shape[:2]
    _write_f32(path, b"FLO1", (width, height), flow)


def read_flo1(path) -> np.ndarray:
    return _read_f32(path, b"FLO1", lambda width, height: (height, width, 2))


def write_msh1(path, mesh: np.ndarray) -> None:
    mesh = np.asarray(mesh)
    if mesh.ndim != 3 or mesh.shape[2] != 2:
        raise ShapeError(f"expected (Vy, Vx, 2) mesh, got {mesh.shape}")
    cells_y = mesh.shape[0] - 1
    cells_x = mesh.shape[1] - 1
    if cells_x < 1 or cells_y < 1:
        raise ShapeError("mesh needs at least 2 vertices per axis")
    _write_f32(path, b"MSH1", (cells_x, cells_y), mesh)


def read_msh1(path) -> np.ndarray:
    mesh = _read_f32(path, b"MSH1", lambda cx, cy: (cy + 1, cx + 1, 2))
    if min(mesh.shape[:2]) < 2:
        raise FormatError("MSH1 mesh needs at least one cell per axis")
    return mesh


def write_pgm(path, image: np.ndarray) -> None:
    """Write an intensity image in [0, 1] as 16-bit binary PGM."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ShapeError(f"expected (H, W) image, got {image.shape}")
    scaled = np.rint(np.clip(image, 0.0, 1.0) * 65535.0).astype(">u2")
    height, width = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n65535\n".encode("ascii"))
        fh.write(scaled.tobytes())


def read_pgm(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise FormatError("not a binary PGM file")
    try:
        width, height = (int(v) for v in parts[1].split())
        maxval = int(parts[2])
    except ValueError as exc:
        raise FormatError("bad PGM header") from exc
    if width < 1 or height < 1:
        raise FormatError(f"bad PGM size {width}x{height}")
    if maxval != 65535:
        raise FormatError(f"unsupported PGM maxval {maxval}")
    body = parts[3]
    if len(body) != width * height * 2:
        raise FormatError("PGM payload size mismatch")
    values = np.frombuffer(body, dtype=">u2").astype(np.float64)
    return values.reshape(height, width) / 65535.0


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 image as binary PPM."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ShapeError(f"expected (H, W, 3) image, got {rgb.shape}")
    height, width = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(rgb, dtype=np.uint8).tobytes())


def _color_wheel() -> np.ndarray:
    # Piecewise hue ramp commonly used for flow visualization (55 colors).
    segs = [(255, 0, 0), (255, 255, 0), (0, 255, 0), (0, 255, 255), (0, 0, 255), (255, 0, 255)]
    counts = [15, 6, 4, 11, 13, 6]
    wheel = []
    for i, n in enumerate(counts):
        start = np.array(segs[i], dtype=np.float64)
        end = np.array(segs[(i + 1) % 6], dtype=np.float64)
        for k in range(n):
            wheel.append(start + (end - start) * (k / n))
    return np.array(wheel)


def flow_to_color(flow: np.ndarray) -> np.ndarray:
    """Map a flow field to the standard hue wheel, returning (H, W, 3) u8.

    Saturation scales with magnitude relative to the field's own peak.
    """
    flow = np.asarray(flow, dtype=np.float64)
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ShapeError(f"expected (H, W, 2) flow, got {flow.shape}")
    u = flow[..., 0]
    v = flow[..., 1]
    mag = np.hypot(u, v)
    peak = float(mag.max())
    scale = peak if peak > 0 else 1.0
    mag = np.clip(mag / scale, 0.0, 1.0)
    wheel = _color_wheel()
    ncols = len(wheel)
    angle = (np.arctan2(-v, -u) / np.pi + 1.0) / 2.0  # [0, 1)
    pos = angle * (ncols - 1)
    k0 = np.floor(pos).astype(int) % ncols
    k1 = (k0 + 1) % ncols
    frac = pos - np.floor(pos)
    rgb = np.empty(flow.shape[:2] + (3,), dtype=np.float64)
    for c in range(3):
        col = wheel[k0, c] / 255.0 * (1 - frac) + wheel[k1, c] / 255.0 * frac
        # Desaturate toward white for small magnitudes.
        rgb[..., c] = 1.0 - mag * (1.0 - col)
    return np.rint(rgb * 255.0).astype(np.uint8)


def write_csv_rows(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

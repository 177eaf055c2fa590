"""Binary containers and image formats for pipeline artifacts.

All multi-byte fields are little-endian except inside PGM/PPM payloads,
which follow the netpbm convention (16-bit samples most significant byte
first).  Readers validate magics and sizes and raise FormatError on
malformed input rather than guessing.
"""

import csv
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError, ShapeError
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
_VOX1_HEADER = struct.Struct("<4sIII")
_FLO1_HEADER = struct.Struct("<4sII")
_MSH1_HEADER = struct.Struct("<4sII")


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
    t_start = int(t[0]) if count else 0
    t_end = int(t[-1]) if count else 0
    return EventStream(
        records["x"].astype(np.int32),
        records["y"].astype(np.int32),
        t,
        records["p"].astype(np.int8),
        width,
        height,
        t_start,
        t_end,
    )


def write_vox1(path, grid: np.ndarray) -> None:
    grid = np.asarray(grid)
    if grid.ndim != 3:
        raise ShapeError(f"expected (B, H, W) grid, got {grid.shape}")
    bins, height, width = grid.shape
    with open(path, "wb") as fh:
        fh.write(_VOX1_HEADER.pack(b"VOX1", bins, height, width))
        fh.write(np.ascontiguousarray(grid, dtype="<f4").tobytes())


def read_vox1(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < _VOX1_HEADER.size:
        raise FormatError("VOX1 file truncated before header")
    magic, bins, height, width = _VOX1_HEADER.unpack_from(blob)
    if magic != b"VOX1":
        raise FormatError(f"bad VOX1 magic {magic!r}")
    body = blob[_VOX1_HEADER.size :]
    if len(body) != 4 * bins * height * width:
        raise FormatError("VOX1 payload size mismatch")
    values = np.frombuffer(body, dtype="<f4").astype(np.float64)
    return values.reshape(bins, height, width)


def write_flo1(path, flow: np.ndarray) -> None:
    flow = np.asarray(flow)
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ShapeError(f"expected (H, W, 2) flow, got {flow.shape}")
    height, width = flow.shape[:2]
    with open(path, "wb") as fh:
        fh.write(_FLO1_HEADER.pack(b"FLO1", width, height))
        fh.write(np.ascontiguousarray(flow, dtype="<f4").tobytes())


def read_flo1(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < _FLO1_HEADER.size:
        raise FormatError("FLO1 file truncated before header")
    magic, width, height = _FLO1_HEADER.unpack_from(blob)
    if magic != b"FLO1":
        raise FormatError(f"bad FLO1 magic {magic!r}")
    body = blob[_FLO1_HEADER.size :]
    if len(body) != 4 * height * width * 2:
        raise FormatError("FLO1 payload size mismatch")
    values = np.frombuffer(body, dtype="<f4").astype(np.float64)
    return values.reshape(height, width, 2)


def write_msh1(path, mesh: np.ndarray) -> None:
    mesh = np.asarray(mesh)
    if mesh.ndim != 3 or mesh.shape[2] != 2:
        raise ShapeError(f"expected (Vy, Vx, 2) mesh, got {mesh.shape}")
    cells_y = mesh.shape[0] - 1
    cells_x = mesh.shape[1] - 1
    if cells_x < 1 or cells_y < 1:
        raise ShapeError("mesh needs at least 2 vertices per axis")
    with open(path, "wb") as fh:
        fh.write(_MSH1_HEADER.pack(b"MSH1", cells_x, cells_y))
        fh.write(np.ascontiguousarray(mesh, dtype="<f4").tobytes())


def read_msh1(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < _MSH1_HEADER.size:
        raise FormatError("MSH1 file truncated before header")
    magic, cells_x, cells_y = _MSH1_HEADER.unpack_from(blob)
    if magic != b"MSH1":
        raise FormatError(f"bad MSH1 magic {magic!r}")
    body = blob[_MSH1_HEADER.size :]
    if len(body) != 4 * (cells_y + 1) * (cells_x + 1) * 2:
        raise FormatError("MSH1 payload size mismatch")
    values = np.frombuffer(body, dtype="<f4").astype(np.float64)
    return values.reshape(cells_y + 1, cells_x + 1, 2)


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


def flow_to_color(flow: np.ndarray, max_mag: float | None = None) -> np.ndarray:
    """Map a flow field to the standard hue wheel, returning (H, W, 3) u8."""
    flow = np.asarray(flow, dtype=np.float64)
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ShapeError(f"expected (H, W, 2) flow, got {flow.shape}")
    u = flow[..., 0]
    v = flow[..., 1]
    mag = np.hypot(u, v)
    if max_mag is None:
        max_mag = float(mag.max())
    scale = max_mag if max_mag > 0 else 1.0
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

"""Binary containers and image formats for pipeline artifacts.

All multi-byte fields are little-endian except inside PGM/PPM payloads,
which follow the netpbm convention (16-bit samples most significant byte
first).  Readers validate magics and sizes and raise FormatError on
malformed input rather than guessing.

EVT1 records are written and read in blocks of `events._BLOCK` events
through one reused record buffer, so neither direction builds an (N,)
record array or holds the file's bytes; a record's fields depend on that
record alone, so the bytes do not depend on the block size.  `read_evt1`
decodes the blocks into one stream; `Evt1File` hands them out one at a
time, each checked as a stream of its own, so a file can be scored
without holding its events.  Both go through one header reader and one
record decoder, and turn a failed stream check into the same
FormatError.
"""

import csv
import math
import os
import struct

import numpy as np

from .errors import DataError, FormatError, ParameterError, ShapeError
from .errors import _check_flow, _check_image, _check_mesh
from . import events
from .events import EventStream, _blocks

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
# The dtypes of a decoded stream's x, y, t and p.
_EVT1_COLUMNS = (np.int32, np.int32, np.int64, np.int8)
_F32_HEADER = struct.Struct("<4s2I")  # magic, then two uint32 dims


def write_evt1(path, stream: EventStream) -> None:
    """Write an event stream: 16-byte header, then 16-byte event records."""
    if stream.width > _EVT1_MAX_SIDE or stream.height > _EVT1_MAX_SIDE:
        raise ParameterError(
            f"EVT1 holds sensors up to {_EVT1_MAX_SIDE} px per side, "
            f"got {stream.width}x{stream.height}"
        )
    n = len(stream)
    # Zeroed once: the fields are overwritten per block, the padding stays 0.
    buffer = np.zeros(min(n, events._BLOCK), dtype=_EVT1_RECORD)
    with open(path, "wb") as fh:
        fh.write(_EVT1_HEADER.pack(b"EVT1", stream.width, stream.height, n))
        for s in _blocks(n):
            records = buffer[: s.stop - s.start]
            for name in ("x", "y", "t", "p"):
                records[name] = getattr(stream, name)[s]
            fh.write(records)


def _read_evt1_header(fh) -> tuple[int, int, int]:
    """Read an open EVT1 file's header: (width, height, count).

    The payload size is checked against the count from the file size, so
    nothing is allocated for records the file does not hold.
    """
    header = fh.read(_EVT1_HEADER.size)
    if len(header) < _EVT1_HEADER.size:
        raise FormatError("EVT1 file truncated before header")
    magic, width, height, count = _EVT1_HEADER.unpack(header)
    if magic != b"EVT1":
        raise FormatError(f"bad EVT1 magic {magic!r}")
    payload = os.fstat(fh.fileno()).st_size - _EVT1_HEADER.size
    if payload != count * _EVT1_RECORD.itemsize:
        raise FormatError("EVT1 payload size does not match header count")
    return width, height, count


def _read_records(fh, records) -> None:
    """Fill a record array from the file's position."""
    # Short only if the file shrank since its size was checked.
    if fh.readinto(records) != records.nbytes:
        raise FormatError("EVT1 payload size does not match header count")


def _decoded_blocks(fh, count: int, columns=None):
    """Yield (s, x, y, t, p) for each `_blocks` slice s of the next count records.

    Every block is read into one reused record buffer, and its fields are
    copied into int32 x and y, int64 t and int8 p: into slice s of the
    (count,) arrays `columns` when given, else into one reused block of
    each, which holds only until the next block is read.
    """
    size = min(count, events._BLOCK)
    buffer = np.empty(size, dtype=_EVT1_RECORD)
    reused = columns is None
    if reused:
        columns = [np.empty(size, dtype=dtype) for dtype in _EVT1_COLUMNS]
    for s in _blocks(count):
        records = buffer[: s.stop - s.start]
        _read_records(fh, records)
        block = [c[: len(records)] if reused else c[s] for c in columns]
        for name, column in zip("xytp", block):
            column[...] = records[name]
        yield s, *block


def _checked_events(x, y, t, p, width, height, t_start, t_end) -> EventStream:
    """The events as a stream; any check that fails raises FormatError."""
    try:
        return EventStream(x, y, t, p, width, height, t_start, t_end)
    except (DataError, ParameterError) as exc:
        raise FormatError(f"bad EVT1 records: {exc}") from exc


def read_evt1(path) -> EventStream:
    """Read a `write_evt1` file.

    The payload size is checked against the header count from the file
    size before anything is allocated; the records are then read block by
    block into one reused buffer and copied into the stream's arrays.
    """
    with open(path, "rb") as fh:
        width, height, count = _read_evt1_header(fh)
        x, y, t, p = columns = [np.empty(count, dtype=dtype) for dtype in _EVT1_COLUMNS]
        for _ in _decoded_blocks(fh, count, columns):
            pass
    return _checked_events(
        x, y, t, p, width, height, int(t[0]) if count else 0, int(t[-1]) if count else 0
    )


class Evt1File:
    """An EVT1 file read lazily: its header on open, its records block by block.

    Opening reads the header, checks the payload size and reads the first
    and last records, so `width`, `height`, `len`, `t_start` and `t_end`
    are those of `read_evt1(path)`.  `blocks` walks the records the way
    `EventStream.blocks` walks a stream's arrays, so the scoring in `cmax`
    takes either, and holds one block of records at a time.  Records are
    checked only as the walk meets them, and a walk stops at the first bad
    block, so on a file with two defects its message can differ from
    `read_evt1`'s; call `read_evt1` first to check a file whole.
    """

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            self.width, self.height, self._count = _read_evt1_header(fh)
            ends = np.empty(min(self._count, 2), dtype=_EVT1_RECORD)
            if self._count:
                _read_records(fh, ends[:1])
                fh.seek(-_EVT1_RECORD.itemsize, os.SEEK_END)
                _read_records(fh, ends[-1:])
        t = ends["t"]
        self.t_start, self.t_end = (int(t[0]), int(t[-1])) if self._count else (0, 0)

    def __len__(self) -> int:
        return self._count

    def blocks(self):
        """Yield (s, x, y, t, p) for each `_blocks` slice s of the records.

        Each block is checked as `read_evt1` checks a whole stream, against
        the span read on open, and each block's first time against the
        previous block's last, so a file that changed since it was opened
        raises FormatError.  A block's arrays are reused: they hold until
        the walk moves on.
        """
        with open(self.path, "rb") as fh:
            if _read_evt1_header(fh) != (self.width, self.height, self._count):
                raise FormatError("EVT1 header changed since the file was opened")
            last = self.t_start
            for s, x, y, t, p in _decoded_blocks(fh, self._count):
                _checked_events(x, y, t, p, self.width, self.height, self.t_start, self.t_end)
                if t[0] < last:
                    raise FormatError("bad EVT1 records: events must be sorted by timestamp")
                last = t[-1]
                yield s, x, y, t, p


def _write_f32(path, magic: bytes, dims, values) -> None:
    """Write magic, uint32 dims, then values as little-endian float32."""
    with np.errstate(over="ignore"):
        data = np.ascontiguousarray(values, dtype="<f4")
    if not np.isfinite(data).all():
        raise DataError(f"{magic.decode()} values must be finite float32")
    with open(path, "wb") as fh:
        fh.write(_F32_HEADER.pack(magic, *dims))
        fh.write(data)


def _read_payload(fh, count: int, dtype, name: str) -> np.ndarray:
    """Read the rest of an open file into a new (count,) array of dtype.

    The payload size is checked from the file size before the array is
    allocated, and the bytes land in it directly, with no copy.
    """
    dtype = np.dtype(dtype)
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != count * dtype.itemsize:
        raise FormatError(f"{name} payload size mismatch")
    values = np.empty(count, dtype=dtype)
    # Short only if the file shrank since its size was checked.
    if fh.readinto(values) != values.nbytes:
        raise FormatError(f"{name} payload size mismatch")
    return values


def _read_f32(path, magic: bytes, shape_of) -> np.ndarray:
    """Read a _write_f32 container; shape_of maps the 2 header dims to a shape."""
    name = magic.decode()
    with open(path, "rb") as fh:
        header = fh.read(_F32_HEADER.size)
        if len(header) < _F32_HEADER.size:
            raise FormatError(f"{name} file truncated before header")
        found, *dims = _F32_HEADER.unpack(header)
        if found != magic:
            raise FormatError(f"bad {name} magic {found!r}")
        if not all(dims):
            raise FormatError(f"{name} needs at least one cell per axis, got {dims[0]}x{dims[1]}")
        shape = shape_of(*dims)
        values = _read_payload(fh, math.prod(shape), "<f4", name)
    if not np.isfinite(values).all():
        raise FormatError(f"{name} values must be finite")
    return values.astype(np.float64).reshape(shape)


def write_flo1(path, flow: np.ndarray) -> None:
    flow = _check_flow(flow)
    height, width = flow.shape[:2]
    _write_f32(path, b"FLO1", (width, height), flow)


def read_flo1(path) -> np.ndarray:
    return _read_f32(path, b"FLO1", lambda width, height: (height, width, 2))


def write_msh1(path, mesh: np.ndarray) -> None:
    mesh = _check_mesh(mesh)
    _write_f32(path, b"MSH1", (mesh.shape[1] - 1, mesh.shape[0] - 1), mesh)


def read_msh1(path) -> np.ndarray:
    return _read_f32(path, b"MSH1", lambda cx, cy: (cy + 1, cx + 1, 2))


def write_pgm(path, image: np.ndarray) -> None:
    """Write an intensity image in [0, 1] as 16-bit binary PGM.

    Values outside [0, 1] are clipped; NaN has no sample value and raises.
    """
    image = _check_image(image)
    if np.isnan(image).any():
        raise DataError("PGM image values must not be NaN")
    scaled = np.rint(np.clip(image, 0.0, 1.0) * 65535.0).astype(">u2")
    height, width = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n65535\n".encode("ascii"))
        fh.write(scaled)


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        lines = [fh.readline() for _ in range(3)]
        if not all(line.endswith(b"\n") for line in lines) or lines[0] != b"P5\n":
            raise FormatError("not a binary PGM file")
        try:
            width, height = (int(v) for v in lines[1].split())
            maxval = int(lines[2])
        except ValueError as exc:
            raise FormatError("bad PGM header") from exc
        if width < 1 or height < 1:
            raise FormatError(f"bad PGM size {width}x{height}")
        if maxval != 65535:
            raise FormatError(f"unsupported PGM maxval {maxval}")
        values = _read_payload(fh, width * height, ">u2", "PGM").astype(np.float64)
    values /= 65535.0
    return values.reshape(height, width)


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 image as binary PPM."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ShapeError(f"expected (H, W, 3) image, got {rgb.shape}")
    height, width = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(rgb, dtype=np.uint8))


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
    flow = _check_flow(flow)
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

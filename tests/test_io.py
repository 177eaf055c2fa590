import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmeshflow import (
    DataError,
    EventStream,
    FormatError,
    ParameterError,
    ShapeError,
    flow_to_color,
    read_evt1,
    read_flo1,
    read_msh1,
    read_pgm,
    seeded_rng,
    write_csv_rows,
    write_evt1,
    write_flo1,
    write_msh1,
    write_pgm,
    write_ppm,
)


def _stream(n=20, width=32, height=24, seed=0):
    rng = seeded_rng(seed)
    t = np.sort(rng.integers(0, 100_000, size=n))
    return EventStream(
        rng.integers(0, width, size=n),
        rng.integers(0, height, size=n),
        t,
        rng.choice([-1, 1], size=n),
        width,
        height,
        int(t.min()),
        int(t.max()),
    )


class TestEvt1:
    def test_roundtrip(self, tmp_path):
        stream = _stream()
        path = tmp_path / "events.evt1"
        write_evt1(path, stream)
        back = read_evt1(path)
        assert back.width == stream.width and back.height == stream.height
        assert np.array_equal(back.x, stream.x)
        assert np.array_equal(back.y, stream.y)
        assert np.array_equal(back.t, stream.t)
        assert np.array_equal(back.p, stream.p)

    def test_empty_stream_roundtrip(self, tmp_path):
        empty = np.empty(0, dtype=np.int64)
        stream = EventStream(empty, empty, empty, empty, 8, 8, 0, 10)
        path = tmp_path / "empty.evt1"
        write_evt1(path, stream)
        back = read_evt1(path)
        assert len(back) == 0
        assert back.width == 8

    def test_record_layout(self, tmp_path):
        stream = EventStream([3], [5], [7], [-1], 16, 16, 0, 10)
        path = tmp_path / "one.evt1"
        write_evt1(path, stream)
        blob = path.read_bytes()
        assert blob[:4] == b"EVT1"
        assert len(blob) == 16 + 16

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.evt1"
        write_evt1(path, _stream(4))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_evt1(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.evt1"
        write_evt1(path, _stream(4))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError):
            read_evt1(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.evt1"
        path.write_bytes(b"EVT")
        with pytest.raises(FormatError):
            read_evt1(path)

    @pytest.mark.parametrize(
        "offset, fmt, value, message",
        [
            (16, "<H", 32, "outside the sensor"),
            (18, "<H", 24, "outside the sensor"),
            (28, "<b", 0, "polarities"),
            (20, "<q", 2**40, "not sorted"),
            (4, "<H", 0, "sensor dimensions"),
        ],
        ids=["x=width", "y=height", "p=0", "unsorted-t", "width=0"],
    )
    def test_bad_records_raise_format_error(self, tmp_path, offset, fmt, value, message):
        # Offsets 16.. are the first record: x, y (uint16), t (int64) at 4, p at 12.
        path = tmp_path / "bad.evt1"
        write_evt1(path, _stream(4))
        blob = bytearray(path.read_bytes())
        struct.pack_into(fmt, blob, offset, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=message):
            read_evt1(path)

    @pytest.mark.parametrize("width, height", [(70000, 8), (8, 65536)])
    def test_oversize_sensor_rejected_before_writing(self, tmp_path, width, height):
        stream = EventStream([0], [0], [5], [1], width, height, 0, 10)
        path = tmp_path / "big.evt1"
        with pytest.raises(ParameterError, match="65535"):
            write_evt1(path, stream)
        assert not path.exists()

    def test_largest_sensor_roundtrips(self, tmp_path):
        stream = EventStream([65534], [3], [5], [1], 65535, 8, 0, 10)
        path = tmp_path / "edge.evt1"
        write_evt1(path, stream)
        back = read_evt1(path)
        assert back.width == 65535 and back.x[0] == 65534


class TestFlo1:
    def test_roundtrip(self, tmp_path):
        flow = seeded_rng(2).normal(size=(5, 9, 2))
        path = tmp_path / "flow.flo1"
        write_flo1(path, flow)
        back = read_flo1(path)
        assert back.shape == (5, 9, 2)
        assert np.allclose(back, flow, atol=1e-6)

    def test_header_stores_width_then_height(self, tmp_path):
        path = tmp_path / "flow.flo1"
        write_flo1(path, np.zeros((3, 7, 2)))
        blob = path.read_bytes()
        assert blob[:4] == b"FLO1"
        width, height = np.frombuffer(blob[4:12], dtype="<u4")
        assert (width, height) == (7, 3)

    def test_shape_validation(self, tmp_path):
        with pytest.raises(ShapeError):
            write_flo1(tmp_path / "x.flo1", np.zeros((4, 4, 3)))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.flo1"
        write_flo1(path, np.zeros((2, 2, 2)))
        blob = bytearray(path.read_bytes())
        blob[0] = 0
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_flo1(path)


class TestMsh1:
    def test_roundtrip(self, tmp_path):
        mesh = seeded_rng(3).normal(size=(17, 17, 2))
        path = tmp_path / "mesh.msh1"
        write_msh1(path, mesh)
        back = read_msh1(path)
        assert back.shape == (17, 17, 2)
        assert np.allclose(back, mesh, atol=1e-6)

    def test_header_stores_cell_counts(self, tmp_path):
        path = tmp_path / "mesh.msh1"
        write_msh1(path, np.zeros((5, 9, 2)))
        blob = path.read_bytes()
        cells_x, cells_y = np.frombuffer(blob[4:12], dtype="<u4")
        assert (cells_x, cells_y) == (8, 4)

    def test_degenerate_mesh_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            write_msh1(tmp_path / "x.msh1", np.zeros((1, 5, 2)))

    @pytest.mark.parametrize("cells_x, cells_y", [(0, 3), (3, 0)])
    def test_zero_cells_rejected(self, tmp_path, cells_x, cells_y):
        path = tmp_path / "flat.msh1"
        values = np.zeros((cells_y + 1) * (cells_x + 1) * 2, dtype="<f4")
        path.write_bytes(
            b"MSH1" + np.array([cells_x, cells_y], dtype="<u4").tobytes() + values.tobytes()
        )
        with pytest.raises(FormatError, match="at least one cell"):
            read_msh1(path)

    def test_payload_mismatch(self, tmp_path):
        path = tmp_path / "short.msh1"
        write_msh1(path, np.zeros((3, 3, 2)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_msh1(path)


class TestPgm:
    def test_roundtrip_quantized(self, tmp_path):
        image = seeded_rng(4).uniform(0, 1, size=(6, 8))
        path = tmp_path / "img.pgm"
        write_pgm(path, image)
        back = read_pgm(path)
        assert back.shape == (6, 8)
        assert np.allclose(back, image, atol=1.0 / 65535.0)

    def test_clipping(self, tmp_path):
        path = tmp_path / "clip.pgm"
        write_pgm(path, np.array([[-1.0, 2.0]]))
        back = read_pgm(path)
        assert back[0, 0] == 0.0
        assert back[0, 1] == 1.0

    def test_not_pgm(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P3\n1 1\n255\n0")
        with pytest.raises(FormatError):
            read_pgm(path)

    @pytest.mark.parametrize("size", [b"-1 -2", b"0 3", b"2 0"])
    def test_non_positive_size_rejected(self, tmp_path, size):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n" + size + b"\n65535\n" + bytes(4))
        with pytest.raises(FormatError, match="size"):
            read_pgm(path)

    def test_payload_mismatch(self, tmp_path):
        path = tmp_path / "short.pgm"
        write_pgm(path, np.zeros((4, 4)))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            read_pgm(path)


_CONTAINERS = {
    "FLO1": (write_flo1, read_flo1, np.zeros((3, 4, 2)), 12),
    "MSH1": (write_msh1, read_msh1, np.zeros((3, 4, 2)), 12),
}


@pytest.mark.parametrize("magic", sorted(_CONTAINERS))
class TestFloat32Containers:
    def _valid(self, tmp_path, magic):
        write, read, values, header = _CONTAINERS[magic]
        path = tmp_path / "data.bin"
        write(path, values)
        return path, read, header

    @pytest.mark.parametrize("missing", [1, 8, 12])
    def test_truncated_header(self, tmp_path, magic, missing):
        path, read, header = self._valid(tmp_path, magic)
        path.write_bytes(path.read_bytes()[: header - missing])
        with pytest.raises(FormatError, match="truncated before header"):
            read(path)

    def test_bad_magic(self, tmp_path, magic):
        path, read, _ = self._valid(tmp_path, magic)
        path.write_bytes(b"EVT1" + path.read_bytes()[4:])
        with pytest.raises(FormatError, match="magic"):
            read(path)

    @pytest.mark.parametrize("change", [-4, -1, 1, 4])
    def test_payload_size_mismatch(self, tmp_path, magic, change):
        path, read, _ = self._valid(tmp_path, magic)
        blob = path.read_bytes()
        path.write_bytes(blob[:change] if change < 0 else blob + bytes(change))
        with pytest.raises(FormatError, match="payload size"):
            read(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
    def test_writer_rejects_non_finite(self, tmp_path, magic, bad):
        write, _, values, _ = _CONTAINERS[magic]
        values = values.copy()
        values[1, 2, 0] = bad
        path = tmp_path / "data.bin"
        with pytest.raises(DataError, match="finite"):
            write(path, values)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_reader_rejects_non_finite(self, tmp_path, magic, bad):
        path, read, header = self._valid(tmp_path, magic)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, header + 4, bad)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="finite"):
            read(path)


# Reader, writer of a small valid file, and the file's header length.
_FUZZ_FORMATS = {
    "EVT1": (read_evt1, write_evt1, EventStream([1, 3], [2, 0], [5, 9], [1, -1], 4, 3, 0, 9), 16),
    "FLO1": (read_flo1, write_flo1, np.ones((2, 3, 2)), 12),
    "MSH1": (read_msh1, write_msh1, np.ones((2, 3, 2)), 12),
    "PGM": (read_pgm, write_pgm, np.ones((2, 3)), 13),
}


@pytest.mark.parametrize("fmt", sorted(_FUZZ_FORMATS))
@settings(max_examples=50, deadline=None)
@given(
    mode=st.sampled_from(["random", "truncate", "header", "anywhere"]),
    noise=st.binary(max_size=40),
    cut=st.integers(0, 200),
)
def test_readers_raise_only_format_error(tmp_path_factory, fmt, mode, noise, cut):
    """Random bytes, truncations and corrupted valid files: return or FormatError.

    A float32 container that does load holds only finite values.
    """
    read, write, value, header = _FUZZ_FORMATS[fmt]
    path = tmp_path_factory.mktemp("fuzz") / "input.bin"
    write(path, value)
    blob = path.read_bytes()
    if mode == "random":
        blob = noise
    elif mode == "truncate":
        blob = blob[: cut % len(blob)]
    else:
        # Keep the magic so the checks behind it see the corruption.
        lo = 4 if mode == "header" else 4 + cut % (len(blob) - 4)
        hi = header if mode == "header" else len(blob)
        patch = noise[: hi - lo]
        blob = blob[:lo] + patch + blob[lo + len(patch) :]
    path.write_bytes(blob)
    try:
        value = read(path)
    except FormatError:
        return
    if fmt in _CONTAINERS:
        assert np.isfinite(value).all()


class TestPpmAndColor:
    def test_ppm_bytes(self, tmp_path):
        rgb = np.zeros((2, 2, 3), dtype=np.uint8)
        rgb[0, 0] = (255, 0, 0)
        path = tmp_path / "img.ppm"
        write_ppm(path, rgb)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n2 2\n255\n")
        assert blob[-12:] == rgb.tobytes()[-12:]

    def test_ppm_shape_validation(self, tmp_path):
        with pytest.raises(ShapeError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 2)))

    def test_zero_flow_is_white(self):
        rgb = flow_to_color(np.zeros((4, 4, 2)))
        assert rgb.dtype == np.uint8
        assert np.all(rgb == 255)

    def test_magnitude_saturates_colors(self):
        flow = np.zeros((1, 2, 2))
        flow[0, 0] = (1.0, 0.0)
        flow[0, 1] = (10.0, 0.0)
        rgb = flow_to_color(flow)
        # Equal direction: the larger magnitude is farther from white.
        assert rgb[0, 1].astype(int).sum() < rgb[0, 0].astype(int).sum()

    def test_distinct_directions_get_distinct_hues(self):
        flow = np.zeros((1, 4, 2))
        flow[0, 0] = (5.0, 0.0)
        flow[0, 1] = (-5.0, 0.0)
        flow[0, 2] = (0.0, 5.0)
        flow[0, 3] = (0.0, -5.0)
        rgb = flow_to_color(flow)
        colors = {tuple(c) for c in rgb[0]}
        assert len(colors) == 4


class TestCsv:
    def test_generic_rows(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv_rows(path, ["a", "b"], [[1, 2], ["x", 0.5]])
        assert path.read_text() == "a,b\n1,2\nx,0.5\n"

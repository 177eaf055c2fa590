"""Event-sized loops in blocks: the same bytes at any block size, block-sized memory.

Every event loop walks `events._BLOCK`-sized blocks.  Shrinking the block
to 1, 3 and 7 events puts block edges between most events of small
streams; streams of 0, 1, B - 1, B and B + 1 events give no block, one
short, one full and one full plus one, and 50 events give many blocks
whose events share pixels, where a block-major add order would show.
Each result must equal the unpatched (one-block) result and the scalar
oracle byte for byte.
"""

import contextlib
import io
import struct

import numpy as np
import pytest

from _oracles import scalar_accumulate_iwe, scalar_simulate, scalar_voxelize
from _peak import traced_peak
from evmeshflow import (
    DataError,
    EventStream,
    Evt1File,
    FormatError,
    ParameterError,
    ShapeError,
    accumulate_iwe,
    contrast,
    density,
    multi_density_sweep,
    read_evt1,
    seeded_rng,
    select_best,
    two_sided_components,
    voxelize,
    warp_events,
    write_evt1,
    write_flo1,
)
from evmeshflow import cmax, events
from evmeshflow.cli import main

_CASES = [
    pytest.param(block, n, id=f"B{block}-n{n}")
    for block in (1, 3, 7)
    for n in sorted({0, 1, block - 1, block, block + 1, 50})
]


def _stream(n, width=5, height=4, seed=0):
    """n sorted events with repeated stamps and shared pixels, on the span [10, 50]."""
    rng = seeded_rng(seed + n)
    t = np.sort(rng.integers(10, 30, size=n)) if n else np.empty(0, dtype=np.int64)
    return EventStream(
        rng.integers(0, width, size=n),
        rng.integers(0, height, size=n),
        t,
        rng.choice([-1, 1], size=n),
        width,
        height,
        10,
        50,
    )


def _tuples(stream):
    return [
        (int(t), int(y), int(x), int(p))
        for x, y, t, p in zip(stream.x, stream.y, stream.t, stream.p)
    ]


def _fields(stream):
    return [getattr(stream, name).tobytes() for name in ("x", "y", "t", "p")]


@pytest.mark.parametrize("block, n", _CASES)
def test_voxelize_blocks(monkeypatch, block, n):
    stream = _stream(n)
    whole = [voxelize(stream, bins).tobytes() for bins in (1, 3)]
    monkeypatch.setattr(events, "_BLOCK", block)
    for bins, want in zip((1, 3), whole):
        got = voxelize(stream, bins).tobytes()
        assert got == want == scalar_voxelize(stream, bins).tobytes()


@pytest.mark.parametrize("block, n", _CASES)
def test_warp_and_splat_blocks(monkeypatch, block, n):
    stream = _stream(n)
    # Flows that put events on, between and off pixels of the 5 x 4 sensor.
    flow = seeded_rng(9).uniform(-3.0, 3.0, size=(4, 5, 2))
    flow[0, 0] = (0.0, 0.0)

    def run():
        out = []
        for t_ref in (10, 50):
            warped = warp_events(stream, flow, t_ref, 10, 50)
            out.append((warped.xw.tobytes(), warped.yw.tobytes(), accumulate_iwe(warped)))
        return out

    whole = run()
    monkeypatch.setattr(events, "_BLOCK", block)
    for (xw, yw, img), (want_xw, want_yw, want_img) in zip(run(), whole):
        assert (xw, yw) == (want_xw, want_yw)
        assert img.tobytes() == want_img.tobytes()
    warped = warp_events(stream, flow, 50, 10, 50)
    assert accumulate_iwe(warped).tobytes() == scalar_accumulate_iwe(warped).tobytes()


@pytest.mark.parametrize("block, n", _CASES)
def test_two_sided_components_blocks(monkeypatch, block, n):
    """Warping straight into cells scores as warp_events + accumulate_iwe does."""
    stream = _stream(n)
    flow = seeded_rng(9).uniform(-3.0, 3.0, size=(4, 5, 2))
    # Events at two pixels leave the sensor, one of them far off it.
    flow[1, 2] = (40.0, -40.0)
    flow[2, 1] = (1e7, 3.0)

    def separate():
        return [
            contrast(accumulate_iwe(warp_events(stream, flow, t_ref, 10, 50)))
            for t_ref in (10, 50)
        ]

    def raw(values):
        return [np.float64(v).tobytes() for v in values]

    whole = raw(two_sided_components(stream, flow, 10, 50))
    assert whole == raw(separate())
    monkeypatch.setattr(events, "_BLOCK", block)
    assert raw(two_sided_components(stream, flow, 10, 50)) == whole
    assert raw(separate()) == whole


@pytest.mark.parametrize("block, n", _CASES)
def test_two_sided_components_reads_files_as_streams(tmp_path, monkeypatch, block, n):
    """An EVT1 file scores block by block as its stream scores in memory."""
    stream = _stream(n)
    path = tmp_path / "events.evt1"
    write_evt1(path, stream)
    flow = seeded_rng(9).uniform(-3.0, 3.0, size=(4, 5, 2))
    flow[1, 2] = (40.0, -40.0)
    flow[2, 1] = (1e7, 3.0)

    def raw(values):
        return [np.float64(v).tobytes() for v in values]

    whole = raw(two_sided_components(stream, flow, 10, 50))
    monkeypatch.setattr(events, "_BLOCK", block)
    handle = Evt1File(path)
    back = read_evt1(path)
    assert (handle.width, handle.height, len(handle)) == (back.width, back.height, len(back))
    assert (handle.t_start, handle.t_end) == (back.t_start, back.t_end)
    for (s, *got), (want_s, *want) in zip(handle.blocks(), back.blocks(), strict=True):
        assert s == want_s
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert raw(two_sided_components(handle, flow, 10, 50)) == whole
    best, components = select_best([handle, stream], flow, 10, 50)
    assert best == 0 and raw(components[0]) == raw(components[1]) == whole


@pytest.mark.parametrize(
    "offset, fmt, value, message",
    [
        (16 + 16 * 7 + 12, "<b", 0, "polarities"),
        (16 + 16 * 7 + 4, "<q", 10**6, "outside"),
        (16 + 16 * 3 + 4, "<q", 21, "sorted"),
        (16 + 16 * 5, "<H", 5, "outside the sensor"),
        (8, "<Q", 9, "header changed"),
        (0, "<4s", b"EVT2", "magic"),
    ],
    ids=["p=0", "t-past-span", "unsorted-across-blocks", "x=width", "count", "magic"],
)
def test_file_rewritten_after_open_fails_in_the_walk(
    tmp_path, monkeypatch, offset, fmt, value, message
):
    # Blocks of 3 records, so records 2 and 3 sit on either side of a block
    # edge; record k sits at byte 16 + 16k, its t at + 4 and its p at + 12.
    monkeypatch.setattr(events, "_BLOCK", 3)
    stream = EventStream(
        np.arange(8) % 5, np.arange(8) % 4, np.arange(8) + 20, np.ones(8, dtype=np.int8), 5, 4, 20, 27
    )
    path = tmp_path / "events.evt1"
    write_evt1(path, stream)
    handle = Evt1File(path)
    blob = bytearray(path.read_bytes())
    struct.pack_into(fmt, blob, offset, value)
    # A count of 9 gets past the payload size check with a ninth record.
    path.write_bytes(bytes(blob) + bytes(16 * (message == "header changed")))
    with pytest.raises(FormatError, match=message):
        two_sided_components(handle, np.zeros((4, 5, 2)), 20, 27)
    # So does a file that shrank.
    path.write_bytes(bytes(blob[:-16]))
    with pytest.raises(FormatError):
        list(handle.blocks())


@pytest.mark.parametrize(
    "flow, t_i, t_j",
    [
        (np.zeros((5, 4, 2)), 10, 50),
        (np.zeros((4, 5)), 10, 50),
        (np.full((4, 5, 2), np.nan), 10, 50),
        (np.full((4, 5, 2), np.inf), 10, 50),
        (np.zeros((4, 5, 2)), np.nan, 50),
        (np.zeros((4, 5, 2)), 10, -np.inf),
        (np.zeros((4, 5, 2)), 30, 30),
    ],
    ids=["transposed", "2-d", "nan-flow", "inf-flow", "nan-t_i", "inf-t_j", "zero-length"],
)
def test_two_sided_components_raises_as_warp_events(flow, t_i, t_j):
    stream = _stream(3)
    with pytest.raises((ShapeError, DataError, ParameterError)) as want:
        warp_events(stream, flow, t_i, t_i, t_j)
    with pytest.raises(want.type) as got:
        two_sided_components(stream, flow, t_i, t_j)
    assert type(got.value) is want.type
    assert str(got.value) == str(want.value)


def test_cells_are_int32_below_2_31_padded_pixels():
    # A 357913939 x 4 sensor pads to 357913941 x 6 = 2**31 - 2 cells, and a
    # (2**29 - 2) x 2 sensor to 2**29 x 4 = 2**31.
    assert cmax._cell_dtype(357913939, 4) == np.int32
    assert cmax._cell_dtype(2**29 - 2, 2) == np.intp


def _frames_with_events(n):
    """Two 2-row frames whose first n pixels cross one threshold of 0.2 each.

    Pixels alternate up and down by 1.1 .. 1.9 thresholds, so each emits one
    event, at its own time.
    """
    size = max(n + n % 2, 8)
    steps = np.zeros(size)
    steps[:n] = 0.2 * np.linspace(1.1, 1.9, size)[:n] * np.where(np.arange(n) % 2, -1, 1)
    values = np.exp(np.stack([np.full(size, 0.25), 0.25 + steps]))
    return values.reshape(2, 2, size // 2), np.array([0.5, 0.75])


@pytest.mark.parametrize("block, n", _CASES)
def test_sweep_decode_blocks(monkeypatch, block, n):
    values, times = _frames_with_events(n)
    whole = multi_density_sweep(zip(times, values), [0.2, 5.0])
    monkeypatch.setattr(events, "_BLOCK", block)
    streams = multi_density_sweep(zip(times, values), [0.2, 5.0])
    assert len(streams[0]) == n and len(streams[1]) == 0
    for c, got, want in zip((0.2, 5.0), streams, whole):
        assert _fields(got) == _fields(want)
        assert _tuples(got) == scalar_simulate(values, times, c)


@pytest.mark.parametrize("block, n", _CASES)
def test_evt1_blocks(tmp_path, monkeypatch, block, n):
    stream = _stream(n)
    write_evt1(tmp_path / "whole.evt1", stream)
    monkeypatch.setattr(events, "_BLOCK", block)
    path = tmp_path / "blocks.evt1"
    write_evt1(path, stream)
    blob = path.read_bytes()
    assert blob == (tmp_path / "whole.evt1").read_bytes()
    back = read_evt1(path)
    assert _fields(back) == _fields(stream)
    # An empty stream has no payload to truncate.
    for bad in [blob + bytes(16)] + [blob[:-5]] * bool(n):
        path.write_bytes(bad)
        with pytest.raises(FormatError, match="payload size"):
            read_evt1(path)


@pytest.mark.parametrize("block, n", [c for c in _CASES if c.values[1] >= 2])
def test_validation_sees_every_block_edge(monkeypatch, block, n):
    """An inversion or a zero polarity at any index fails, whichever block holds it."""
    stream = _stream(n)
    monkeypatch.setattr(events, "_BLOCK", block)
    args = (stream.width, stream.height, 10, 10 + n)
    for i in range(n):
        t = np.arange(n) + 10
        p = np.ones(n, dtype=np.int8)
        p[i] = 0
        with pytest.raises(DataError, match="polarities"):
            EventStream(stream.x, stream.y, t, p, *args)
        if i:
            t[i] = t[i - 1] - 1
            with pytest.raises(DataError, match="sorted"):
                EventStream(stream.x, stream.y, t, stream.p, *args)


# About 2**18 events: each event-sized temporary of the whole-array forms
# (8 bytes per event) is 2 MiB, several blocks' worth.
_N = 2**18


def _big_stream(width=64, height=48):
    rng = seeded_rng(4)
    t = np.sort(rng.integers(0, 10**6, size=_N))
    return EventStream(
        rng.integers(0, width, size=_N),
        rng.integers(0, height, size=_N),
        t,
        rng.choice([-1, 1], size=_N),
        width,
        height,
        0,
        10**6,
    )


def test_voxelize_holds_grid_and_blocks():
    stream = _big_stream()
    grid, peak = traced_peak(voxelize, stream, 5)
    # The grid, and a block's few float64 and int64 temporaries.
    assert peak <= grid.nbytes + 8 * 8 * events._BLOCK


def test_read_evt1_holds_stream_and_one_block(tmp_path):
    path = tmp_path / "big.evt1"
    write_evt1(path, _big_stream())
    stream, peak = traced_peak(read_evt1, path)
    assert len(stream) == _N
    # 4 + 4 + 8 + 1 bytes per event, and one block of 16-byte records.
    assert peak <= 17 * _N + 16 * events._BLOCK + 2**16


def test_warp_and_splat_hold_their_arrays_and_blocks():
    stream = _big_stream()
    flow = seeded_rng(6).uniform(-4.0, 4.0, size=(stream.height, stream.width, 2))
    warped, peak = traced_peak(warp_events, stream, flow, 0, 0, 10**6)
    # xw and yw, 8 bytes per event each.
    assert peak <= 16 * _N + 8 * 8 * events._BLOCK
    image, peak = traced_peak(accumulate_iwe, warped)
    padded = (stream.height + 2) * (stream.width + 2) * 8
    # An int32 corner cell and two float64 fractions per event.
    assert peak <= 20 * _N + image.nbytes + padded + 8 * 8 * events._BLOCK


def test_two_sided_components_holds_cells_fractions_and_blocks():
    stream = _big_stream()
    flow = seeded_rng(6).uniform(-4.0, 4.0, size=(stream.height, stream.width, 2))
    _, peak = traced_peak(two_sided_components, stream, flow, 0, 10**6)
    padded = (stream.height + 2) * (stream.width + 2) * 8
    # The cells and fractions of accumulate_iwe, and no warped positions.
    assert peak <= 20 * _N + padded + 8 * 8 * events._BLOCK


def test_cli_select_holds_one_candidate_at_a_time(tmp_path):
    """Scoring reads each file block by block, so no candidate stream is held."""
    big = _big_stream()
    paths = []
    for k, n in enumerate((_N // 4, _N, _N // 2)):
        paths.append(tmp_path / f"c{k}.evt1")
        write_evt1(paths[-1], big.select(np.arange(_N) < n))
    flow = seeded_rng(6).uniform(-4.0, 4.0, size=(big.height, big.width, 2))
    write_flo1(tmp_path / "flow.flo1", flow)
    argv = [
        "select", "--out", str(tmp_path / "out"),
        "candidates=" + ",".join(map(str, paths)), f"flow={tmp_path / 'flow.flo1'}",
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        code, peak = traced_peak(main, argv)
    assert code == 0
    # The largest candidate's cells and fractions, the flow, a block's
    # temporaries and the image.
    assert peak <= 20 * _N + flow.nbytes + 8 * 8 * events._BLOCK + 2**20


def test_sorted_events_decodes_times_into_the_key():
    stream = _big_stream()
    plane = stream.width * stream.height
    pix = stream.y.astype(np.int64) * stream.width + stream.x
    key = events._event_keys(stream.t, pix, stream.p, plane, 0)
    # Equal keys are equal events, so any sort gives the decoded order.
    order = np.argsort(key)
    (x, y, t, p), peak = traced_peak(
        events._sorted_events, key, stream.width, stream.height, 0, 10**6
    )
    assert t is key
    assert _fields(EventStream(x, y, t, p, stream.width, stream.height, 0, 10**6)) == [
        getattr(stream, name)[order].tobytes() for name in ("x", "y", "t", "p")
    ]
    # int32 x and y and int8 p; the times overwrite the keys.
    assert peak <= 9 * _N + 8 * 8 * events._BLOCK


def test_density_holds_two_planes():
    grid = voxelize(_big_stream(256, 192), 5)
    plane = grid[0].nbytes
    value, peak = traced_peak(density, grid)
    assert value == float((np.abs(grid).sum(axis=0) > 0.0).mean())
    assert peak <= 2 * plane + 2**16

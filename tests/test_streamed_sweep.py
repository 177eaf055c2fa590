"""The streamed sweep: keys sorted per interval, EVT1 files written as the sweep runs.

`events._swept_keys` yields each threshold's keys once no later event can
sort before them.  `multi_density_sweep` concatenates the yields, and CLI
`simulate` and `density` append them to EVT1 files as they come.  These
tests pin the emission rule against the scalar oracle's global sort, the
CLI's bytes against the library's, memory that does not grow with the
sequence, and what a sweep that fails leaves behind.
"""

import builtins
import contextlib
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evmeshflow.cli
from _oracles import scalar_simulate
from _peak import traced_peak
from evmeshflow import (
    FormatError,
    MotionSpec,
    ParameterError,
    Scene,
    adaptive_timestamps,
    density,
    multi_density_sweep,
    read_evt1,
    render_frame,
    render_sequence,
    voxelize,
    write_evt1,
)
from evmeshflow import events
from evmeshflow.cli import main


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _oracle_keys(values, times, threshold, t_start):
    height, width = values.shape[1:]
    return np.array(
        [
            ((t - t_start) * height * width + y * width + x) * 2 + (p > 0)
            for t, y, x, p in scalar_simulate(values, times, threshold)
        ],
        dtype=np.int64,
    )


@st.composite
def _sweeps(draw):
    """Frames on a small sensor and 1-3 thresholds.

    Gaps mix whole steps with gaps below 1 us, so that runs of intervals
    close inside one microsecond and their keys wait for a later one.
    """
    height, width = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    count = draw(st.integers(2, 9))
    gaps = draw(st.lists(
        st.one_of(st.floats(1e-8, 9e-7), st.floats(1e-6, 3e-6), st.floats(1e-3, 0.2)),
        min_size=count - 1, max_size=count - 1,
    ))
    times = np.cumsum([draw(st.floats(0.0, 2.0)), *gaps])
    levels = draw(st.lists(
        st.floats(-1.5, 1.5), min_size=count * height * width,
        max_size=count * height * width,
    ))
    values = np.exp(np.array(levels).reshape(count, height, width))
    thresholds = draw(st.lists(st.sampled_from([0.05, 0.1, 0.17, 0.3, 0.6]), min_size=1, max_size=3))
    return times, values, thresholds


@pytest.mark.parametrize("block", [1, 3, 7])
@settings(max_examples=40, deadline=None)
@given(sweep=_sweeps())
def test_yields_concatenate_to_the_global_sort(block, sweep):
    times, values, thresholds = sweep
    t_start = int(np.rint(times[0] * 1e6))
    plane = values.shape[1] * values.shape[2]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(events, "_BLOCK", block)
        steps = list(events._swept_keys(zip(times, values), thresholds))
        streams = multi_density_sweep(zip(times, values), thresholds)
    # One yield per interval, then the rest once the frames run out.
    us = [int(np.rint(t * 1e6)) for t in times]
    assert [step[2] for step in steps] == us[1:] + us[-1:]
    for j, c in enumerate(thresholds):
        expected = _oracle_keys(values, times, c, t_start)
        chunks = [step[3][j] for step in steps]
        # Before the last yield, a chunk holds only times below its interval's end.
        for (_, _, t_us, _), chunk in zip(steps[:-1], chunks):
            assert np.all(chunk < (t_us - t_start) * 2 * plane)
        assert np.concatenate(chunks).tobytes() == expected.tobytes()
        stream = streams[j]
        tuples = [(int(t), int(y), int(x), int(p)) for x, y, t, p in zip(stream.x, stream.y, stream.t, stream.p)]
        assert tuples == scalar_simulate(values, times, c)


@pytest.mark.parametrize("block", [1, 3, 7])
@settings(max_examples=15, deadline=None)
@given(sweep=_sweeps())
def test_cli_files_equal_the_library_streams(tmp_path_factory, block, sweep):
    times, values, thresholds = sweep
    root = tmp_path_factory.mktemp("sweep")
    streams = multi_density_sweep(zip(times, values), thresholds)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(events, "_BLOCK", block)
        patch.setattr(evmeshflow.cli, "_rendered", lambda scene: iter(zip(times, values)))
        argv = ["simulate", "--out", root / "out", "thresholds=" + ",".join(map(repr, thresholds))]
        assert _run(argv)[0] == 0
    rows = (root / "out" / "density.csv").read_text().splitlines()[1:]
    for k, (c, stream) in enumerate(zip(thresholds, streams)):
        write_evt1(root / "library.evt1", stream)
        written = root / "out" / f"events_{k:02d}_c{c:g}.evt1"
        assert written.read_bytes() == (root / "library.evt1").read_bytes()
        assert rows[k] == f"{c!r},{len(stream)},{density(voxelize(stream, 5))!r}"


def test_many_intervals_inside_one_microsecond():
    # Fourteen frames 0.1 us apart from 1.6 us: nine or more intervals
    # close at times that round to 2 us.  Every event rounds to 2 us or
    # later, so their keys wait until an interval closes at 3 us.
    times = 1.6e-6 + np.arange(14) * 1e-7
    levels = np.cumsum(np.full((14, 2, 2), 0.13) * [[1, -1], [0.5, 2]], axis=0)
    values = np.exp(levels)
    steps = list(events._swept_keys(zip(times, values), [0.1]))
    us = [step[2] for step in steps]
    assert us[:9] == [2] * 9 and us[-1] == 3
    ready = [len(step[3][0]) for step in steps]
    assert all(n == 0 for u, n in zip(us, ready) if u == 2)
    assert sum(ready[:-1]) > 0
    (stream,) = multi_density_sweep(zip(times, values), [0.1])
    tuples = [(int(t), int(y), int(x), int(p)) for x, y, t, p in zip(stream.x, stream.y, stream.t, stream.p)]
    assert tuples == scalar_simulate(values, times, 0.1)


def _scene_frames(size=128):
    scene = Scene(size, size, 3, MotionSpec("translation", (30.0, -11.0)))
    return list(render_sequence(scene, adaptive_timestamps(scene, 0.0, 1.0)))


@pytest.mark.parametrize("thresholds", [[0.05], [0.05, 0.5]])
def test_sweep_frees_each_thresholds_keys_before_its_decode(thresholds):
    frames = _scene_frames()
    streams, peak = traced_peak(multi_density_sweep, frames, thresholds)
    total = sum(len(s) for s in streams)
    assert total > 300_000
    # The keys twice while they are concatenated (16 B/event), then the
    # stream (17 B/event), with per-pixel and per-interval slack.  Parts
    # that outlive their decode add 8 B/event (28 B/event for one threshold).
    assert peak <= 20 * total + 2**20


def test_cli_simulate_memory_does_not_grow_with_the_sequence(tmp_path):
    args = ["width=128", "height=128", "velocity=30,-11", "thresholds=0.1"]
    assert _run(["simulate", "--out", tmp_path / "warm", *args])[0] == 0
    peaks, counts = [], []
    for t_end in (1, 4):
        out = tmp_path / f"t{t_end}"
        (code, _), peak = traced_peak(_run, ["simulate", "--out", out, *args, f"t_end={t_end}"])
        assert code == 0
        peaks.append(peak)
        counts.append(int((out / "density.csv").read_text().splitlines()[1].split(",")[1]))
    # Four times the events (17 B each if held) in the same memory.
    assert counts[1] > 4 * counts[0]
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]


def test_simulate_opens_each_file_once(tmp_path, monkeypatch):
    opened = []

    def counting(open_):
        def wrapper(file, *args, **kwargs):
            opened.append(Path(file).name)
            return open_(file, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(builtins, "open", counting(builtins.open))
    monkeypatch.setattr(io, "open", counting(io.open))
    code, _ = _run([
        "simulate", "--out", tmp_path, "width=32", "height=32", "velocity=8,2",
        "thresholds=0.1,0.2,0.4",
    ])
    assert code == 0
    names = [f"events_{k:02d}_c{c}.evt1" for k, c in enumerate(("0.1", "0.2", "0.4"))]
    assert sorted(opened) == sorted([*names, "density.csv", "manifest.txt"])


_SWEEP = ["width=32", "height=32", "velocity=8,2", "thresholds=0.1,0.3"]


def _assert_no_stream_left(out):
    files = sorted(out.glob("events_*.evt1"))
    for path in files:
        with pytest.raises(FormatError):
            read_evt1(path)
    return files


@pytest.mark.parametrize("command", ["simulate", "density"])
def test_budget_failure_midway_leaves_no_stream(tmp_path, monkeypatch, command):
    scene = Scene(32, 32, 0, MotionSpec("translation", (8.0, 2.0)))
    frames = render_sequence(scene, adaptive_timestamps(scene, 0.0, 1.0))
    full, _ = multi_density_sweep(frames, [0.1, 0.3])
    budget = len(full) // 2
    monkeypatch.setattr(events, "_EVENT_BUDGET", budget)
    # Small blocks, so that some keys are on disk when the budget fails.
    monkeypatch.setattr(events, "_BLOCK", 7)
    code, err = _run([command, "--out", tmp_path / "out", *_SWEEP])
    assert code == 1
    assert err == f"error [simulate]: threshold 0.1 would emit over {budget} events\n"
    left = _assert_no_stream_left(tmp_path / "out")
    if command == "simulate":
        assert len(left) == 2 and left[0].stat().st_size > 16
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [p.name for p in left]


@pytest.mark.parametrize("command", ["simulate", "density"])
def test_bad_frame_midway_leaves_no_stream(tmp_path, monkeypatch, command):
    calls = []

    def render(scene, t):
        calls.append(t)
        frame = render_frame(scene, t)
        if len(calls) == 6:
            frame[3, 4] = 0.0
        return frame

    monkeypatch.setattr(evmeshflow.cli, "render_frame", render)
    monkeypatch.setattr(events, "_BLOCK", 7)
    code, err = _run([command, "--out", tmp_path / "out", *_SWEEP])
    assert code == 1
    assert err == "error [simulate]: intensities must be positive for log conversion\n"
    left = _assert_no_stream_left(tmp_path / "out")
    assert len(left) == (2 if command == "simulate" else 0)
    assert len(calls) == 6


def test_directory_at_an_evt1_path_fails_in_write(tmp_path):
    out = tmp_path / "out"
    (out / "events_01_c0.3.evt1").mkdir(parents=True)
    code, err = _run(["simulate", "--out", out, *_SWEEP])
    assert code == 1
    assert err.startswith("error [write]:") and "events_01_c0.3.evt1" in err


def test_density_removes_its_directory(tmp_path):
    out = tmp_path / "out"
    assert _run(["density", "--out", out, *_SWEEP])[0] == 0
    assert sorted(p.name for p in out.iterdir()) == ["density.csv", "manifest.txt"]
    assert _run(["density", "--out", out, *_SWEEP, "bins=0"])[0] == 1
    assert sorted(p.name for p in out.iterdir()) == ["density.csv", "manifest.txt"]


# On 8x8 the sort key holds spans up to 2**56 - 2 us.
_LIMIT_S = (2**56 - 2) * 1e-6


def _overflow_frames(times, changes):
    """Frames at `times` (s) on 8x8; interval k changes the log level by changes[k]."""
    levels = np.concatenate([[0.0], np.cumsum(changes)])
    return [(t, np.full((8, 8), np.exp(level))) for t, level in zip(times, levels)]


@pytest.mark.parametrize(
    "times, changes, span",
    [
        # Events early, frames past the bound later: the first interval that
        # closes past it raises, with its own span (the last frame's at the parent).
        ((0.0, 1.0, 2 * _LIMIT_S, 3 * _LIMIT_S), (0.5, 0.0, 0.0), int(np.rint(2 * _LIMIT_S * 1e6))),
        # No events before the interval that closes past the bound.
        ((0.0, 1.0, 2 * _LIMIT_S), (0.0, 0.5), int(np.rint(2 * _LIMIT_S * 1e6))),
        # Past the bound, but no events at all: no raise.
        ((0.0, 1.0, 2 * _LIMIT_S), (0.0, 0.0), None),
        # Events, and every span within the bound: no raise.
        ((0.0, 1.0, _LIMIT_S * 0.999), (0.5, 0.5), None),
    ],
)
def test_key_overflow_raises_where_events_meet_the_bound(tmp_path, times, changes, span):
    frames = _overflow_frames(times, changes)
    if span is None:
        streams = multi_density_sweep(frames, [0.2, 0.3])
        assert (len(streams[0]) > 0) == any(changes)
        return
    message = f"a {span} us span on a 8x8 sensor overflows the int64 event sort key"
    with pytest.raises(ParameterError) as info:
        multi_density_sweep(frames, [0.2, 0.3])
    assert str(info.value) == message
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evmeshflow.cli, "_rendered", lambda scene: iter(frames))
        code, err = _run(["simulate", "--out", tmp_path / "out", "thresholds=0.2,0.3"])
    assert code == 1
    assert err == f"error [simulate]: {message}\n"
    _assert_no_stream_left(tmp_path / "out")

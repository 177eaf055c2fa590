import contextlib
import csv
import os
import struct
import subprocess
import sys
import tempfile
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evmeshflow.cli
import evmeshflow.cmax
import evmeshflow.events
import evmeshflow.io
from evmeshflow import (
    EventStream,
    FormatError,
    MotionSpec,
    Scene,
    adaptive_timestamps,
    extract_meshflow,
    flow_between,
    read_evt1,
    read_flo1,
    read_msh1,
    read_pgm,
    render_frame,
    render_sequence,
    seeded_rng,
    select_best,
    shuffle_timestamps,
    simulate,
    write_evt1,
    write_flo1,
    write_msh1,
    write_pgm,
)
from evmeshflow.cli import _COMMANDS, main


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _dir_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestGen:
    def test_translation_scene_frame_count(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, stderr = _run(
            capsys, "gen", "--out", out, "velocity=10,0", "width=32", "height=32"
        )
        assert code == 0 and stderr == ""
        assert "11 frames" in stdout
        frames = sorted(out.glob("frame_*.pgm"))
        assert len(frames) == 11
        assert len(list(out.glob("flow_*.flo1"))) == 10
        assert len(list(out.glob("mesh_*.msh1"))) == 10
        rows = _read_csv(out / "times.csv")
        assert len(rows) == 1 + 11
        manifest = (out / "manifest.txt").read_text()
        for p in out.iterdir():
            if p.name != "manifest.txt":
                assert p.name in manifest

    def test_zero_motion_gives_zero_flow(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = _run(
            capsys, "gen", "--out", out, "velocity=0,0", "width=32", "height=32"
        )
        assert code == 0
        flows = sorted(out.glob("flow_*.flo1"))
        assert len(flows) == 1
        assert not read_flo1(flows[0]).any()

    def test_deterministic_reruns_byte_identical(self, tmp_path, capsys):
        args = ["gen", "--seed", "7", "velocity=8,-3", "width=32", "height=32"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert _run(capsys, *args, "--out", out_a)[0] == 0
        assert _run(capsys, *args, "--out", out_b)[0] == 0
        assert _dir_bytes(out_a) == _dir_bytes(out_b)

    def test_seed_changes_texture(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        _run(capsys, "gen", "--seed", "1", "--out", out_a, "width=32", "height=32")
        _run(capsys, "gen", "--seed", "2", "--out", out_b, "width=32", "height=32")
        a = (out_a / "frame_0000.pgm").read_bytes()
        b = (out_b / "frame_0000.pgm").read_bytes()
        assert a != b

    def test_each_frame_written_before_the_next_render(self, tmp_path, capsys, monkeypatch):
        # gen streams: frame k and the flow/mesh pair ending at it reach
        # disk before frame k + 1 is rendered, so no list of them builds up.
        log = []

        def render(scene, t):
            log.append("render")
            return render_frame(scene, t)

        def logged(writer):
            def write(path, data):
                log.append(path.name)
                return writer(path, data)
            return write

        monkeypatch.setattr(evmeshflow.cli, "render_frame", render)
        for name in ("write_pgm", "write_flo1", "write_msh1"):
            monkeypatch.setattr(
                evmeshflow.cli.io, name, logged(getattr(evmeshflow.cli.io, name))
            )
        code, stdout, _ = _run(
            capsys, "gen", "--out", tmp_path / "out", "velocity=10,0", "width=32", "height=32"
        )
        assert code == 0 and "11 frames" in stdout
        expected = []
        for k in range(11):
            expected += ["render", f"frame_{k:04d}.pgm"]
            if k:
                expected += [f"flow_{k - 1:04d}_{k:04d}.flo1", f"mesh_{k - 1:04d}_{k:04d}.msh1"]
        assert log == expected

    def test_manifest_lists_frames_then_pairs_then_times(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run(capsys, "gen", "--out", out, "velocity=10,0", "width=32", "height=32")[0] == 0
        lines = (out / "manifest.txt").read_text().splitlines()
        times = [f"{float(t):.9f}" for _, t in _read_csv(out / "times.csv")[1:]]
        expected = ["# gen artifacts"]
        expected += [f"frame_{k:04d}.pgm\tt={t}" for k, t in enumerate(times)]
        for k in range(1, len(times)):
            note = f"interval=[{times[k - 1]},{times[k]}]"
            pair = f"{k - 1:04d}_{k:04d}"
            expected += [f"flow_{pair}.flo1\t{note}", f"mesh_{pair}.msh1\t{note}"]
        expected.append(f"times.csv\tcount={len(times)}")
        assert len(times) == 11 and lines == expected

    @pytest.mark.parametrize(
        "module, name, fail_at, stage",
        [
            pytest.param(evmeshflow.cli, "adaptive_timestamps", 1, "render", id="times"),
            pytest.param(evmeshflow.cli, "render_frame", 3, "render", id="render"),
            pytest.param(evmeshflow.cli, "extract_meshflow", 3, "gen", id="meshflow"),
            pytest.param(evmeshflow.cli.io, "write_flo1", 3, "write", id="write"),
        ],
    )
    def test_failure_mid_run_names_its_stage(
        self, tmp_path, capsys, monkeypatch, module, name, fail_at, stage
    ):
        calls = []
        original = getattr(module, name)

        def failing(*args):
            calls.append(args)
            if len(calls) == fail_at:
                raise RuntimeError("stage broke")
            return original(*args)

        monkeypatch.setattr(module, name, failing)
        out = tmp_path / "out"
        code, _, stderr = _run(
            capsys, "gen", "--out", out, "velocity=10,0", "width=32", "height=32"
        )
        assert code == 1
        assert stderr.startswith(f"error [{stage}]:") and "stage broke" in stderr
        assert not (out / "manifest.txt").exists()


class TestSimulateAndDensity:
    def test_threshold_sweep_density_non_increasing(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = _run(
            capsys,
            "simulate",
            "--out",
            out,
            "velocity=8,2",
            "width=32",
            "height=32",
            "thresholds=0.1,0.2,0.4",
        )
        assert code == 0
        rows = _read_csv(out / "density.csv")
        assert rows[0] == ["threshold", "events", "density"]
        densities = [float(r[2]) for r in rows[1:]]
        assert densities == sorted(densities, reverse=True)
        assert len(list(out.glob("events_*.evt1"))) == 3

    def test_static_scene_zero_events(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = _run(
            capsys, "simulate", "--out", out, "velocity=0,0", "width=32", "height=32"
        )
        assert code == 0
        (evt,) = sorted(out.glob("events_*.evt1"))
        assert len(read_evt1(evt)) == 0

    def test_rerun_identical_bytes(self, tmp_path, capsys):
        args = [
            "simulate", "--seed", "3", "velocity=6,1", "width=32", "height=32",
            "thresholds=0.2,0.3",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert _run(capsys, *args, "--out", out_a)[0] == 0
        assert _run(capsys, *args, "--out", out_b)[0] == 0
        assert _dir_bytes(out_a) == _dir_bytes(out_b)

    def test_density_command_writes_table_only(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = _run(
            capsys, "density", "--out", out, "velocity=8,2", "width=32",
            "height=32", "thresholds=0.2,0.4",
        )
        assert code == 0
        assert (out / "density.csv").exists()
        assert not list(out.glob("*.evt1"))

    def test_threads_do_not_change_output(self, tmp_path, capsys):
        base = ["simulate", "velocity=7,3", "width=32", "height=32", "thresholds=0.15,0.3"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert _run(capsys, *base, "--out", out_a, "--threads", "1")[0] == 0
        assert _run(capsys, *base, "--out", out_b, "--threads", "4")[0] == 0
        assert _dir_bytes(out_a) == _dir_bytes(out_b)

    @pytest.mark.parametrize("command", ["simulate", "density"])
    @pytest.mark.parametrize(
        "override, stage",
        [
            ("motion=affine", "config"),
            ("thresholds=-1", "simulate"),
            ("thresholds=1e-17", "simulate"),
            ("thresholds=1e-9", "simulate"),
            ("bins=0", "voxelize"),
        ],
    )
    def test_failure_names_its_stage(self, tmp_path, capsys, command, override, stage):
        code, _, stderr = _run(
            capsys, command, "--out", tmp_path / "out", "width=16", "height=16",
            override,
        )
        assert code == 1
        assert stderr.startswith(f"error [{stage}]:")

    @pytest.mark.parametrize("command", ["simulate", "density"])
    def test_render_failure_mid_sweep_names_render(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # Frames are rendered one at a time inside the sweep; the failing
        # render still reports its own stage, not `simulate`.
        calls = []

        def failing_render(scene, t):
            calls.append(t)
            if len(calls) == 3:
                raise RuntimeError("texture lost")
            return render_frame(scene, t)

        monkeypatch.setattr(evmeshflow.cli, "render_frame", failing_render)
        code, _, stderr = _run(
            capsys, command, "--out", tmp_path / "out", "velocity=8,2", "width=16",
            "height=16", "thresholds=0.1,0.3",
        )
        assert code == 1
        assert stderr.startswith("error [render]:") and "texture lost" in stderr
        assert len(calls) == 3


def _make_candidates(tmp_path):
    scene = Scene(32, 32, 5, MotionSpec("translation", (8.0, 3.0)))
    times = adaptive_timestamps(scene, 0.0, 1.0)
    frames = render_sequence(scene, times)
    stream = simulate(frames, 0.2)
    shuffled = shuffle_timestamps(stream, seeded_rng(0, 42))
    flow = flow_between(scene, 0.0, 1.0)
    write_evt1(tmp_path / "coherent.evt1", stream)
    write_evt1(tmp_path / "shuffled.evt1", shuffled)
    write_flo1(tmp_path / "flow.flo1", flow)
    return stream


def _empty_stream(width, height):
    empty = np.empty(0, dtype=np.int64)
    return EventStream(empty, empty, empty, empty, width, height, 0, 0)


@st.composite
def _select_case(draw):
    """Candidate streams on a 6x5 sensor, repeats and empty ones included, and a flow."""
    width, height = 6, 5
    streams = []
    for _ in range(draw(st.integers(1, 4))):
        if streams and draw(st.booleans()):
            streams.append(draw(st.sampled_from(streams)))
            continue
        n = draw(st.integers(0, 12))
        if n == 0:
            streams.append(_empty_stream(width, height))
            continue
        x = draw(st.lists(st.integers(0, width - 1), min_size=n, max_size=n))
        y = draw(st.lists(st.integers(0, height - 1), min_size=n, max_size=n))
        t = sorted(draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n)))
        p = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
        streams.append(EventStream(
            np.array(x), np.array(y), np.array(t), np.array(p), width, height, t[0], t[-1]
        ))
    values = draw(st.lists(
        st.floats(-8.0, 8.0, allow_nan=False, width=32), min_size=width * height * 2,
        max_size=width * height * 2,
    ))
    return streams, np.array(values).reshape(height, width, 2)


class TestSelect:
    def test_single_candidate_selects_zero(self, tmp_path, capsys):
        _make_candidates(tmp_path)
        out = tmp_path / "out"
        code, stdout, _ = _run(
            capsys, "select", "--out", out,
            f"candidates={tmp_path / 'coherent.evt1'}",
            f"flow={tmp_path / 'flow.flo1'}",
        )
        assert code == 0
        assert "selected=0" in stdout
        assert (out / "selected.txt").read_text() == "0\n"

    def test_coherent_beats_shuffled(self, tmp_path, capsys):
        _make_candidates(tmp_path)
        out = tmp_path / "out"
        code, stdout, _ = _run(
            capsys, "select", "--out", out,
            f"candidates={tmp_path / 'shuffled.evt1'},{tmp_path / 'coherent.evt1'}",
            f"flow={tmp_path / 'flow.flo1'}",
        )
        assert code == 0
        assert "selected=1" in stdout
        rows = _read_csv(out / "scores.csv")
        assert rows[0] == ["candidate_index", "var_ti", "var_tj", "total"]
        totals = [float(r[3]) for r in rows[1:]]
        assert totals[1] > totals[0]

    def test_tie_breaks_to_lowest_index(self, tmp_path, capsys):
        _make_candidates(tmp_path)
        out = tmp_path / "out"
        code, stdout, _ = _run(
            capsys, "select", "--out", out,
            f"candidates={tmp_path / 'coherent.evt1'},{tmp_path / 'coherent.evt1'}",
            f"flow={tmp_path / 'flow.flo1'}",
        )
        assert code == 0
        assert "selected=0" in stdout

    def test_each_candidate_scored_once(self, tmp_path, capsys, monkeypatch):
        _make_candidates(tmp_path)
        calls = []
        splat = evmeshflow.cmax._splat

        # The corner loop that every image of warped events comes from.
        def counting(*args, **kwargs):
            calls.append(1)
            return splat(*args, **kwargs)

        monkeypatch.setattr(evmeshflow.cmax, "_splat", counting)
        names = ["coherent", "shuffled", "coherent"]
        code, _, _ = _run(
            capsys, "select", "--out", tmp_path / "out",
            "candidates=" + ",".join(str(tmp_path / f"{n}.evt1") for n in names),
            f"flow={tmp_path / 'flow.flo1'}",
        )
        assert code == 0
        # One image of warped events per interval endpoint per candidate.
        assert len(calls) == 2 * len(names)

    def test_empty_candidate_leaves_other_scores(self, tmp_path, capsys):
        # EVT1 stores no span, so an empty stream reads back on [0, 0]; the
        # other candidates must still be scored on their own [1, 2] s.
        scene = Scene(32, 32, 5, MotionSpec("translation", (8.0, 3.0)), 1.0, 2.0)
        stream = simulate(render_sequence(scene, adaptive_timestamps(scene, 1.0, 2.0)), 0.2)
        write_evt1(tmp_path / "late.evt1", stream)
        write_evt1(tmp_path / "empty.evt1", _empty_stream(32, 32))
        write_flo1(tmp_path / "flow.flo1", flow_between(scene, 1.0, 2.0))
        lines = {}
        for names in (["late"], ["late", "empty"]):
            out = tmp_path / "_".join(names)
            code, _, _ = _run(
                capsys, "select", "--out", out,
                "candidates=" + ",".join(str(tmp_path / f"{n}.evt1") for n in names),
                f"flow={tmp_path / 'flow.flo1'}",
            )
            assert code == 0
            lines[len(names)] = (out / "scores.csv").read_bytes().splitlines()
        assert lines[2][:2] == lines[1]
        assert lines[2][2] == b"1,0.0,0.0,0.0"

    def test_only_empty_candidates_fail_in_select_stage(self, tmp_path, capsys):
        _make_candidates(tmp_path)
        write_evt1(tmp_path / "empty.evt1", _empty_stream(32, 32))
        code, _, stderr = _run(
            capsys, "select", "--out", tmp_path / "out",
            f"candidates={tmp_path / 'empty.evt1'},{tmp_path / 'empty.evt1'}",
            f"flow={tmp_path / 'flow.flo1'}",
        )
        assert code == 1
        assert stderr.startswith("error [select]:")

    @settings(max_examples=40, deadline=None)
    @given(case=_select_case())
    def test_cli_scores_equal_select_best(self, case):
        """scores.csv and selected.txt are select_best on the read-back files."""
        streams, flow = case
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            paths = [root / f"c{k}.evt1" for k in range(len(streams))]
            for path, stream in zip(paths, streams):
                write_evt1(path, stream)
            write_flo1(root / "flow.flo1", flow)
            with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(StringIO()) as err:
                code = main([
                    "select", "--out", str(root / "out"),
                    "candidates=" + ",".join(map(str, paths)), f"flow={root / 'flow.flo1'}",
                ])
            candidates = [read_evt1(path) for path in paths]
            full = [c for c in candidates if len(c)]
            t_i = min((c.t_start for c in full), default=0)
            t_j = max((c.t_end for c in full), default=0)
            if t_i == t_j:
                # No candidate has events, or all of them fall at one time.
                assert code == 1 and err.getvalue().startswith("error [select]:")
                return
            assert code == 0
            best, components = select_best(candidates, read_flo1(root / "flow.flo1"), t_i, t_j)
            rows = _read_csv(root / "out" / "scores.csv")
            assert rows[1:] == [
                [str(k), repr(a), repr(b), repr(a + b)] for k, (a, b) in enumerate(components)
            ]
            assert (root / "out" / "selected.txt").read_text() == f"{best}\n"

    @pytest.mark.parametrize(
        "defect",
        ["bad-magic", "short-payload", "unsorted-across-blocks", "x=width", "p=0"],
    )
    def test_malformed_candidate_fails_in_load_stage(self, tmp_path, capsys, monkeypatch, defect):
        """Each bad file fails in [load] with read_evt1's own message."""
        # Blocks of 8 records; record k sits at byte 16 + 16k, with x at + 0,
        # t at + 4 and p at + 12.
        monkeypatch.setattr(evmeshflow.events, "_BLOCK", 8)
        _make_candidates(tmp_path)
        blob = bytearray((tmp_path / "coherent.evt1").read_bytes())
        if defect == "bad-magic":
            blob[:4] = b"EVT0"
        elif defect == "short-payload":
            del blob[-5:]
        elif defect == "unsorted-across-blocks":
            # The second block starts just before the first one ends.
            (t7,) = struct.unpack_from("<q", blob, 16 + 16 * 7 + 4)
            struct.pack_into("<q", blob, 16 + 16 * 8 + 4, t7 - 1)
        elif defect == "x=width":
            struct.pack_into("<H", blob, 16 + 16 * 5, 32)
        else:
            struct.pack_into("<b", blob, 16 + 16 * 2 + 12, 0)
        path = tmp_path / "bad.evt1"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as want:
            read_evt1(path)
        code, _, stderr = _run(
            capsys, "select", "--out", tmp_path / "out",
            f"candidates={tmp_path / 'coherent.evt1'},{path}",
            f"flow={tmp_path / 'flow.flo1'}",
        )
        assert code == 1
        assert stderr == f"error [load]: {want.value}\n"
        assert not (tmp_path / "out" / "scores.csv").exists()

    @pytest.mark.parametrize(
        "defects, message",
        [
            # A polarity of 0 in the first block and an x off the sensor in
            # the second: a walk meets the polarity first, read_evt1 checks
            # the coordinates first.
            ([(2, 12, "<b", 0), (13, 0, "<H", 40)], "event coordinates outside the sensor"),
            # The same with the polarity in the first record, which the
            # handle reads on open.
            ([(0, 12, "<b", 0), (13, 0, "<H", 40)], "event coordinates outside the sensor"),
            # Times out of order in the middle and an x off the sensor in the
            # last record: read_evt1 checks the order first.
            ([(5, 4, "<q", -1), (-1, 0, "<H", 40)], "events must be sorted by timestamp"),
        ],
        ids=["p=0-then-x", "first-record-p=0-then-x", "unsorted-then-last-x"],
    )
    def test_two_defects_fail_with_the_whole_stream_message(
        self, tmp_path, capsys, monkeypatch, defects, message
    ):
        # Blocks of 8 records; record k sits at byte 16 + 16k, with x at + 0,
        # t at + 4 and p at + 12.
        monkeypatch.setattr(evmeshflow.events, "_BLOCK", 8)
        _make_candidates(tmp_path)
        blob = bytearray((tmp_path / "coherent.evt1").read_bytes())
        count = (len(blob) - 16) // 16
        for record, field, fmt, value in defects:
            struct.pack_into(fmt, blob, 16 + 16 * (record % count) + field, value)
        path = tmp_path / "bad.evt1"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=message):
            read_evt1(path)
        code, _, stderr = _run(
            capsys, "select", "--out", tmp_path / "out",
            f"candidates={path}", f"flow={tmp_path / 'flow.flo1'}",
        )
        assert code == 1
        assert stderr == f"error [load]: bad EVT1 records: {message}\n"

    def test_first_bad_candidate_in_order_names_the_error(self, tmp_path, capsys):
        # The first candidate is bad in a middle record, the second in its
        # magic: load checks the candidates in order and reports the first.
        _make_candidates(tmp_path)
        blob = bytearray((tmp_path / "coherent.evt1").read_bytes())
        struct.pack_into("<b", blob, 16 + 16 * 5 + 12, 0)
        (tmp_path / "bad_p.evt1").write_bytes(bytes(blob))
        blob = bytearray((tmp_path / "coherent.evt1").read_bytes())
        blob[:4] = b"EVT0"
        (tmp_path / "bad_magic.evt1").write_bytes(bytes(blob))
        code, _, stderr = _run(
            capsys, "select", "--out", tmp_path / "out",
            f"candidates={tmp_path / 'bad_p.evt1'},{tmp_path / 'bad_magic.evt1'}",
            f"flow={tmp_path / 'flow.flo1'}",
        )
        assert code == 1
        assert stderr == "error [load]: bad EVT1 records: polarities must be -1 or +1\n"

    def test_candidate_rewritten_after_load_fails_in_select(self, tmp_path, capsys, monkeypatch):
        _make_candidates(tmp_path)
        path = tmp_path / "coherent.evt1"
        read_flo1 = evmeshflow.io.read_flo1

        def rewrite_then_read(flow_path):
            # Runs after the candidates were checked and opened.
            blob = bytearray(path.read_bytes())
            struct.pack_into("<b", blob, 16 + 16 * 3 + 12, 0)
            path.write_bytes(bytes(blob))
            return read_flo1(flow_path)

        monkeypatch.setattr(evmeshflow.io, "read_flo1", rewrite_then_read)
        code, _, stderr = _run(
            capsys, "select", "--out", tmp_path / "out",
            f"candidates={path}", f"flow={tmp_path / 'flow.flo1'}",
        )
        assert code == 1
        assert stderr == "error [select]: bad EVT1 records: polarities must be -1 or +1\n"

    def test_no_candidates_fails_in_config_stage(self, tmp_path, capsys):
        _make_candidates(tmp_path)
        code, _, stderr = _run(
            capsys, "select", "--out", tmp_path / "out", "candidates=",
            f"flow={tmp_path / 'flow.flo1'}",
        )
        assert code == 1
        assert stderr.startswith("error [config]:")


class TestMeshflow:
    def test_constant_flow_constant_mesh(self, tmp_path, capsys):
        flow = np.empty((64, 64, 2))
        flow[..., 0] = 4.0
        flow[..., 1] = -1.0
        write_flo1(tmp_path / "flow.flo1", flow)
        out = tmp_path / "out"
        code, _, _ = _run(
            capsys, "meshflow", "--out", out, f"flow={tmp_path / 'flow.flo1'}"
        )
        assert code == 0
        mesh = read_msh1(out / "meshflow.msh1")
        assert mesh.shape == (17, 17, 2)
        assert np.allclose(mesh[..., 0], 4.0)
        assert np.allclose(mesh[..., 1], -1.0)

    def test_visualization_artifact(self, tmp_path, capsys):
        write_flo1(tmp_path / "flow.flo1", np.ones((32, 32, 2)))
        out = tmp_path / "out"
        code, _, _ = _run(
            capsys, "meshflow", "--out", out,
            f"flow={tmp_path / 'flow.flo1'}", "cells=8", "visualize=1",
        )
        assert code == 0
        assert (out / "meshflow.ppm").read_bytes().startswith(b"P6\n32 32\n255\n")

    def test_malformed_magic_fails_in_load_stage(self, tmp_path, capsys):
        bad = tmp_path / "bad.flo1"
        bad.write_bytes(b"XXXX" + b"\x00" * 64)
        code, _, stderr = _run(
            capsys, "meshflow", "--out", tmp_path / "out", f"flow={bad}"
        )
        assert code == 1
        assert stderr.startswith("error [load]:")

    def test_non_finite_flow_fails_in_load_stage(self, tmp_path, capsys):
        # A NaN at one cell centre would otherwise vanish in the vertex median.
        values = np.ones((32, 32, 2), dtype="<f4")
        values[8, 8, 0] = np.nan
        bad = tmp_path / "nan.flo1"
        bad.write_bytes(
            b"FLO1" + np.array([32, 32], dtype="<u4").tobytes() + values.tobytes()
        )
        code, _, stderr = _run(
            capsys, "meshflow", "--out", tmp_path / "out", f"flow={bad}", "cells=8"
        )
        assert code == 1
        assert stderr.startswith("error [load]:")
        assert "finite" in stderr

    def test_missing_flow_key(self, tmp_path, capsys):
        code, _, stderr = _run(capsys, "meshflow", "--out", tmp_path / "out")
        assert code == 1
        assert stderr.startswith("error [config]:")
        assert "flow" in stderr


class TestEval:
    def _write_pair(self, tmp_path, offset=(0.0, 0.0)):
        rng = seeded_rng(17)
        gt = rng.normal(size=(16, 16, 2))
        pred = gt + np.array(offset)
        write_flo1(tmp_path / "gt.flo1", gt)
        write_flo1(tmp_path / "pred.flo1", pred)

    def test_exact_prediction_zero_rows(self, tmp_path, capsys):
        self._write_pair(tmp_path)
        out = tmp_path / "out"
        code, _, _ = _run(
            capsys, "eval", "--out", out,
            f"pred={tmp_path / 'pred.flo1'}", f"gt={tmp_path / 'gt.flo1'}",
        )
        assert code == 0
        rows = _read_csv(out / "metrics.csv")
        assert rows[0] == ["sequence", "metric", "value"]
        values = {r[1]: float(r[2]) for r in rows[1:]}
        assert values["epe"] == pytest.approx(0.0, abs=1e-6)
        assert values["npe_1"] == 0.0
        assert values["outlier_pct"] == 0.0

    def test_pythagorean_offset_epe(self, tmp_path, capsys):
        self._write_pair(tmp_path, offset=(3.0, 4.0))
        out = tmp_path / "out"
        code, stdout, _ = _run(
            capsys, "eval", "--out", out, "label=unit",
            f"pred={tmp_path / 'pred.flo1'}", f"gt={tmp_path / 'gt.flo1'}",
        )
        assert code == 0
        rows = _read_csv(out / "metrics.csv")
        assert all(r[0] == "unit" for r in rows[1:])
        values = {r[1]: float(r[2]) for r in rows[1:]}
        assert values["epe"] == pytest.approx(5.0, abs=1e-5)
        assert "epe=" in stdout

    def test_dimension_mismatch_fails(self, tmp_path, capsys):
        write_flo1(tmp_path / "pred.flo1", np.zeros((8, 8, 2)))
        write_flo1(tmp_path / "gt.flo1", np.zeros((9, 9, 2)))
        code, _, stderr = _run(
            capsys, "eval", "--out", tmp_path / "out",
            f"pred={tmp_path / 'pred.flo1'}", f"gt={tmp_path / 'gt.flo1'}",
        )
        assert code == 1
        assert stderr.startswith("error [eval]:")

    def test_meshflow_kind_upsamples_before_metrics(self, tmp_path, capsys):
        mesh = np.zeros((17, 17, 2))
        mesh[..., 0] = 2.0
        write_msh1(tmp_path / "pred.msh1", mesh)
        write_msh1(tmp_path / "gt.msh1", mesh)
        out = tmp_path / "out"
        code, _, _ = _run(
            capsys, "eval", "--out", out, "kind=meshflow",
            f"pred={tmp_path / 'pred.msh1'}", f"gt={tmp_path / 'gt.msh1'}",
        )
        assert code == 0
        values = {r[1]: float(r[2]) for r in _read_csv(out / "metrics.csv")[1:]}
        assert values["epe"] == pytest.approx(0.0, abs=1e-6)

    def test_bad_kind_rejected(self, tmp_path, capsys):
        code, _, stderr = _run(
            capsys, "eval", "--out", tmp_path / "out", "kind=volume",
            "pred=x", "gt=y",
        )
        assert code == 1
        assert stderr.startswith("error [config]:")


class TestWarp:
    def _scene_artifacts(self, tmp_path):
        scene = Scene(64, 64, 9, MotionSpec("translation", (6.0, -4.0)))
        frame_i = render_frame(scene, 0.0)
        frame_j = render_frame(scene, 1.0)
        from evmeshflow import flow_between

        flow = flow_between(scene, 0.0, 1.0)
        write_pgm(tmp_path / "frame_i.pgm", frame_i)
        write_pgm(tmp_path / "frame_j.pgm", frame_j)
        write_flo1(tmp_path / "flow.flo1", flow)
        write_msh1(tmp_path / "mesh.msh1", extract_meshflow(flow))

    def test_true_flow_beats_identity(self, tmp_path, capsys):
        self._scene_artifacts(tmp_path)
        out = tmp_path / "out"
        code, _, _ = _run(
            capsys, "warp", "--out", out,
            f"image={tmp_path / 'frame_j.pgm'}",
            f"reference={tmp_path / 'frame_i.pgm'}",
            f"flow={tmp_path / 'flow.flo1'}",
        )
        assert code == 0
        values = {r[0]: float(r[1]) for r in _read_csv(out / "alignment.csv")[1:]}
        assert values["warped"] < values["identity"]
        assert read_pgm(out / "warped.pgm").shape == (64, 64)

    def test_mesh_input_accepted(self, tmp_path, capsys):
        self._scene_artifacts(tmp_path)
        out = tmp_path / "out"
        code, _, _ = _run(
            capsys, "warp", "--out", out,
            f"image={tmp_path / 'frame_j.pgm'}",
            f"reference={tmp_path / 'frame_i.pgm'}",
            f"flow={tmp_path / 'mesh.msh1'}",
        )
        assert code == 0
        values = {r[0]: float(r[1]) for r in _read_csv(out / "alignment.csv")[1:]}
        assert values["warped"] < values["identity"]

    def test_zero_flow_error_equals_frame_difference(self, tmp_path, capsys):
        self._scene_artifacts(tmp_path)
        write_flo1(tmp_path / "zero.flo1", np.zeros((64, 64, 2)))
        out = tmp_path / "out"
        code, _, _ = _run(
            capsys, "warp", "--out", out,
            f"image={tmp_path / 'frame_j.pgm'}",
            f"reference={tmp_path / 'frame_i.pgm'}",
            f"flow={tmp_path / 'zero.flo1'}",
        )
        assert code == 0
        values = {r[0]: float(r[1]) for r in _read_csv(out / "alignment.csv")[1:]}
        assert values["warped"] == pytest.approx(values["identity"], abs=1e-12)

    def test_missing_file_fails_in_load_stage(self, tmp_path, capsys):
        code, _, stderr = _run(
            capsys, "warp", "--out", tmp_path / "out",
            "image=/nonexistent.pgm", "reference=/nonexistent.pgm",
            "flow=/nonexistent.flo1",
        )
        assert code == 1
        assert stderr.startswith("error [load]:")


class TestSubsample:
    def _event_artifacts(self, tmp_path):
        scene = Scene(32, 32, 11, MotionSpec("translation", (8.0, 0.0)))
        times = adaptive_timestamps(scene, 0.0, 1.0)
        stream = simulate(render_sequence(scene, times), 0.2)
        from evmeshflow import flow_between

        write_evt1(tmp_path / "events.evt1", stream)
        write_flo1(tmp_path / "flow.flo1", flow_between(scene, 0.0, 1.0))
        return stream

    def test_spatial_mode_thins_stream(self, tmp_path, capsys):
        stream = self._event_artifacts(tmp_path)
        out = tmp_path / "out"
        code, stdout, _ = _run(
            capsys, "subsample", "--out", out,
            f"events={tmp_path / 'events.evt1'}", f"flow={tmp_path / 'flow.flo1'}",
            "mode=spatial", "keep_ratio=0.25",
        )
        assert code == 0
        kept = read_evt1(out / "subsampled.evt1")
        assert 0 < len(kept) < len(stream)
        assert f"of {len(stream)}" in stdout

    def test_temporal_mode_runs(self, tmp_path, capsys):
        stream = self._event_artifacts(tmp_path)
        out = tmp_path / "out"
        code, _, _ = _run(
            capsys, "subsample", "--out", out,
            f"events={tmp_path / 'events.evt1'}", f"flow={tmp_path / 'flow.flo1'}",
            "mode=temporal", "keep_ratio=0.5", "tolerance=inf",
        )
        assert code == 0
        kept = read_evt1(out / "subsampled.evt1")
        assert 0 < len(kept) < len(stream)

    def test_bad_mode_rejected(self, tmp_path, capsys):
        code, _, stderr = _run(
            capsys, "subsample", "--out", tmp_path / "out",
            "events=x", "flow=y", "mode=random",
        )
        assert code == 1
        assert stderr.startswith("error [config]:")


class TestConfigPlumbing:
    def test_config_file_with_comments_and_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(
            "# demo scene\nvelocity = 10,0\nwidth = 32  # pixels\nheight = 32\n"
        )
        out = tmp_path / "out"
        code, stdout, _ = _run(
            capsys, "gen", "--config", cfg, "--out", out, "velocity=0,0"
        )
        assert code == 0
        assert "2 frames" in stdout  # override wins: static scene

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("velocity 10,0\n")
        code, _, stderr = _run(capsys, "gen", "--config", cfg, "--out", tmp_path / "o")
        assert code == 1
        assert stderr.startswith("error [config]:")

    def test_malformed_override(self, tmp_path, capsys):
        code, _, stderr = _run(capsys, "gen", "--out", tmp_path / "o", "velocity")
        assert code == 1
        assert stderr.startswith("error [config]:")

    def test_seed_flag_overrides_config_seed(self, tmp_path, capsys):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text("seed = 5\nwidth = 32\nheight = 32\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        _run(capsys, "gen", "--config", cfg, "--out", out_a)
        _run(capsys, "gen", "--config", cfg, "--seed", "5", "--out", out_b)
        assert _dir_bytes(out_a) == _dir_bytes(out_b)


class TestUnusedKeys:
    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        scene = Scene(16, 16, 3, MotionSpec("translation", (4.0, 1.0)))
        frames = render_sequence(scene, [0.0, 1.0])
        from evmeshflow import flow_between

        flow = flow_between(scene, 0.0, 1.0)
        write_evt1(root / "events.evt1", simulate(frames, 0.2))
        write_flo1(root / "flow.flo1", flow)
        write_msh1(root / "mesh.msh1", extract_meshflow(flow))
        write_pgm(root / "frame_i.pgm", render_frame(scene, 0.0))
        write_pgm(root / "frame_j.pgm", render_frame(scene, 1.0))
        return root

    @staticmethod
    def _valid(command, root):
        scene = ["width=16", "height=16", "velocity=4,1"]
        return {
            "gen": scene,
            "simulate": scene,
            "density": scene,
            "select": [
                f"candidates={root / 'events.evt1'}", f"flow={root / 'flow.flo1'}"
            ],
            "meshflow": [f"flow={root / 'flow.flo1'}", "cells=4"],
            "eval": [f"pred={root / 'flow.flo1'}", f"gt={root / 'flow.flo1'}"],
            "warp": [
                f"image={root / 'frame_j.pgm'}",
                f"reference={root / 'frame_i.pgm'}",
                f"flow={root / 'mesh.msh1'}",
            ],
            "subsample": [
                f"events={root / 'events.evt1'}", f"flow={root / 'flow.flo1'}"
            ],
        }[command]

    @pytest.mark.parametrize("source", ["override", "file"])
    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_unused_key_fails_in_config(
        self, tmp_path, capsys, inputs, command, source
    ):
        # `seed` is used by every command; `bogus` by none.
        args = [command, *self._valid(command, inputs), "seed=2"]
        assert _run(capsys, *args, "--out", tmp_path / "ok")[0] == 0
        if source == "file":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("bogus = 1\n")
            args += ["--config", cfg]
        else:
            args.append("bogus=1")
        out = tmp_path / "out"
        code, stdout, stderr = _run(capsys, *args, "--out", out)
        assert code == 1 and stdout == ""
        assert stderr.startswith("error [config]:") and "bogus" in stderr
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("key", ["splat=nearest", "t_i_us=0", "t_j_us=1000000"])
    def test_removed_select_keys_rejected(self, tmp_path, capsys, inputs, key):
        code, _, stderr = _run(
            capsys, "select", "--out", tmp_path / "out",
            *self._valid("select", inputs), key,
        )
        assert code == 1
        assert stderr.startswith("error [config]:") and key.split("=")[0] in stderr

    def test_velocity_unused_by_affine_scene(self, tmp_path, capsys):
        code, _, stderr = _run(
            capsys, "gen", "--out", tmp_path / "out", "width=16", "height=16",
            "motion=affine", "generator=0.1,0,0,0,0.1,0", "velocity=1,0",
        )
        assert code == 1
        assert stderr.startswith("error [config]:") and "velocity" in stderr

    @pytest.mark.parametrize(
        "extra", [["width=16"], ["kind=meshflow", "height=x"]]
    )
    def test_eval_dimensions_taken_in_config(self, tmp_path, capsys, inputs, extra):
        # The size is used only to upsample meshes, and parsed before loading.
        code, _, stderr = _run(
            capsys, "eval", "--out", tmp_path / "out",
            f"pred={inputs / 'mesh.msh1'}", f"gt={inputs / 'mesh.msh1'}", *extra,
        )
        assert code == 1
        assert stderr.startswith("error [config]:")


def _fresh_cli(cwd, *argv, stdout=subprocess.PIPE):
    """Run the CLI in a new interpreter; return (exit status, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(evmeshflow.cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "evmeshflow.cli", *map(str, argv)],
        cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    return done.returncode, done.stdout, done.stderr


class TestSharedParser:
    def test_parser_is_built_once_and_clearable(self):
        assert evmeshflow.cli._build_parser() is evmeshflow.cli._build_parser()
        assert callable(evmeshflow.cli._build_parser.cache_clear)

    def test_no_flag_carries_over_between_calls(self, tmp_path, capsys, monkeypatch):
        # subsample with --seed, --config and --out, then gen with none of
        # them, then subsample with no flag: each run writes the bytes a
        # fresh interpreter writes for the same arguments, so no seed,
        # config or output directory survives in the shared parser.
        scene = Scene(24, 24, 3, MotionSpec("translation", (6.0, -2.0)))
        stream = simulate(render_sequence(scene, adaptive_timestamps(scene, 0.0, 1.0)), 0.2)
        from evmeshflow import flow_between

        write_evt1(tmp_path / "events.evt1", stream)
        write_flo1(tmp_path / "flow.flo1", flow_between(scene, 0.0, 1.0))
        cfg = tmp_path / "sub.cfg"
        cfg.write_text(
            f"events = {tmp_path / 'events.evt1'}\nflow = {tmp_path / 'flow.flo1'}\n"
            "mode = spatial\nkeep_ratio = 0.25\n"
        )
        runs = [
            ("sub1", ["subsample", "--seed", "5", "--config", cfg, "--out", "first"]),
            ("gen", ["gen", "width=16", "height=16", "t_end=0.3"]),
            (
                "sub2",
                [
                    "subsample", f"events={tmp_path / 'events.evt1'}",
                    f"flow={tmp_path / 'flow.flo1'}", "mode=temporal",
                ],
            ),
        ]
        for name, argv in runs:
            here, fresh = tmp_path / "here" / name, tmp_path / "fresh" / name
            here.mkdir(parents=True)
            fresh.mkdir(parents=True)
            monkeypatch.chdir(here)
            code, stdout, stderr = _run(capsys, *argv)
            assert (code, stderr) == (0, "")
            assert (code, stdout, stderr) == _fresh_cli(fresh, *argv)
            # --out defaults to ./out unless given; nothing else is written.
            assert sorted(p.name for p in here.iterdir()) == [
                "first" if "--out" in argv else "out"
            ]
            (out,) = here.iterdir()
            assert _dir_bytes(out) == _dir_bytes(fresh / out.name)


class TestClosedStdout:
    def test_eval_into_a_closed_pipe_exits_cleanly(self, tmp_path):
        # The reader of stdout is gone before the summary is printed, as in
        # `evmeshflow eval ... | head -0`: every artifact is written, the
        # run exits 0 and prints no traceback.
        rng = seeded_rng(29)
        write_flo1(tmp_path / "gt.flo1", rng.normal(size=(8, 8, 2)))
        write_flo1(tmp_path / "pred.flo1", rng.normal(size=(8, 8, 2)))
        argv = ["eval", f"pred={tmp_path / 'pred.flo1'}", f"gt={tmp_path / 'gt.flo1'}"]
        code, _, _ = _fresh_cli(tmp_path, *argv, "--out", tmp_path / "open")
        assert code == 0
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, _, stderr = _fresh_cli(
                tmp_path, *argv, "--out", tmp_path / "closed", stdout=write_end
            )
        finally:
            os.close(write_end)
        assert (code, stderr) == (0, "")
        assert _dir_bytes(tmp_path / "closed") == _dir_bytes(tmp_path / "open")

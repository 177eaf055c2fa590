import csv

import numpy as np
import pytest

import evmeshflow.cmax
from evmeshflow import (
    MotionSpec,
    Scene,
    adaptive_timestamps,
    extract_meshflow,
    read_evt1,
    read_flo1,
    read_msh1,
    read_pgm,
    render_frame,
    render_sequence,
    seeded_rng,
    shuffle_timestamps,
    simulate,
    write_evt1,
    write_flo1,
    write_msh1,
    write_pgm,
)
from evmeshflow.cli import main


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


def _make_candidates(tmp_path):
    scene = Scene(32, 32, 5, MotionSpec("translation", (8.0, 3.0)))
    times = adaptive_timestamps(scene, 0.0, 1.0)
    frames = render_sequence(scene, times)
    stream = simulate(frames, 0.2)
    shuffled = shuffle_timestamps(stream, seeded_rng(0, 42))
    from evmeshflow import flow_between

    flow = flow_between(scene, 0.0, 1.0)
    write_evt1(tmp_path / "coherent.evt1", stream)
    write_evt1(tmp_path / "shuffled.evt1", shuffled)
    write_flo1(tmp_path / "flow.flo1", flow)
    return stream


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
        accumulate = evmeshflow.cmax.accumulate_iwe

        def counting(*args, **kwargs):
            calls.append(1)
            return accumulate(*args, **kwargs)

        monkeypatch.setattr(evmeshflow.cmax, "accumulate_iwe", counting)
        names = ["coherent", "shuffled", "coherent"]
        code, _, _ = _run(
            capsys, "select", "--out", tmp_path / "out",
            "candidates=" + ",".join(str(tmp_path / f"{n}.evt1") for n in names),
            f"flow={tmp_path / 'flow.flo1'}",
        )
        assert code == 0
        # One image of warped events per interval endpoint per candidate.
        assert len(calls) == 2 * len(names)

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

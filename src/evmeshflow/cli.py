"""Command-line front end for the event meshflow pipeline.

Every run is a pure function of (config, seed): randomness flows through
counted-stream generators derived from the single master seed, manifests
carry data timestamps rather than wall-clock times, and all artifacts use
fixed little-endian layouts, so re-running a command with identical inputs
reproduces every output byte for byte.

Config files hold one `key = value` pair per line ('#' starts a comment);
positional `key=value` arguments override file entries.  Each command takes
the keys it uses in its `config` stage, and a key it does not use fails
there, whether it came from the file or from an override.
"""

import argparse
import functools
import os
import shutil
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from . import events, io
from .cmax import select_best
from .errors import FormatError, ParameterError
from .events import (
    _decoded_keys,
    _swept_keys,
    spatial_guided_subsample,
    temporal_guided_subsample,
)
from .mesh import (
    MeshGridSpec,
    alignment_error,
    backward_warp,
    extract_meshflow,
    upsample_bilinear,
)
from .metrics import angular_error, epe, npe, outlier_pct
from .scene import MotionSpec, Scene, adaptive_timestamps, flow_between, render_frame
from .voxel import density, voxelize


class StageError(Exception):
    """Pipeline failure annotated with the stage that raised it."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


@contextmanager
def _stage(name: str):
    """Convert any error raised in the block into a stage-named failure."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


# ---------------------------------------------------------------------------
# Config plumbing


def _parse_pairs(entries, source: str) -> dict[str, str]:
    """Parse `key=value` entries (numbered from 1 in errors); blank ones are skipped."""
    cfg: dict[str, str] = {}
    for n, entry in enumerate(entries, start=1):
        if not entry.strip():
            continue
        if "=" not in entry:
            raise ParameterError(f"{source} {n}: expected key=value, got {entry!r}")
        key, value = entry.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


@contextmanager
def _config(cfg: dict[str, str]):
    """The config stage: the block pops every key it uses; a key left over fails."""
    with _stage("config"):
        yield
        if cfg:
            raise ParameterError(f"unused config key(s): {', '.join(sorted(cfg))}")


def _require(cfg: dict[str, str], key: str) -> str:
    if key not in cfg:
        raise ParameterError(f"missing required config key {key!r}")
    return cfg.pop(key)


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _scene_from_config(cfg: dict[str, str], seed: int) -> Scene:
    kind = cfg.pop("motion", "translation")
    if kind == "translation":
        coeffs = _floats(cfg.pop("velocity", "10,0"))
        if "accel" in cfg:
            coeffs = coeffs + _floats(cfg.pop("accel"))
    else:
        coeffs = _floats(_require(cfg, "generator"))
    return Scene(
        width=int(cfg.pop("width", "64")),
        height=int(cfg.pop("height", "64")),
        texture_seed=seed,
        motion=MotionSpec(kind, coeffs),
        t_start=float(cfg.pop("t_start", "0")),
        t_end=float(cfg.pop("t_end", "1")),
    )


def _mesh_spec(cfg: dict[str, str]) -> MeshGridSpec:
    cells = int(cfg.pop("cells", "16"))
    return MeshGridSpec(cells_x=cells, cells_y=cells)


def _read_flow(path: Path, shape, magics=(b"FLO1", b"MSH1")) -> np.ndarray:
    """Load a dense flow from FLO1, or from a MSH1 mesh upsampled to `shape`."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic not in magics:
        expected = " or ".join(m.decode() for m in magics)
        raise FormatError(f"{path}: expected {expected} magic, found {magic!r}")
    if magic == b"FLO1":
        return io.read_flo1(path)
    return upsample_bilinear(io.read_msh1(path), *shape)


def _write_density(out: Path, thresholds, counts, densities) -> tuple[str, str]:
    rows = [[repr(c), n, repr(d)] for c, n, d in zip(thresholds, counts, densities)]
    io.write_csv_rows(out / "density.csv", ["threshold", "events", "density"], rows)
    return ("density.csv", f"sweeps={len(thresholds)}")


# ---------------------------------------------------------------------------
# Commands: each returns its manifest entries (name, note) and a summary line.


def _rendered(scene: Scene):
    """The scene's adaptive (t, frame) pairs, one at a time, in render stages."""
    with _stage("render"):
        times = adaptive_timestamps(scene, scene.t_start, scene.t_end)
    for t in times:
        with _stage("render"):
            frame = render_frame(scene, t)
        yield t, frame


def cmd_gen(cfg, out: Path, seed: int):
    with _config(cfg):
        scene = _scene_from_config(cfg, seed)
        spec = _mesh_spec(cfg)
    times, frame_entries, pair_entries = [], [], []
    for k, (t, frame) in enumerate(_rendered(scene)):
        name = f"frame_{k:04d}.pgm"
        with _stage("write"):
            io.write_pgm(out / name, frame)
        frame_entries.append((name, f"t={t:.9f}"))
        if times:
            with _stage("gen"):
                flow = flow_between(scene, times[-1], t)
                msh = extract_meshflow(flow, spec)
            note = f"interval=[{times[-1]:.9f},{t:.9f}]"
            pair = f"{k - 1:04d}_{k:04d}"
            with _stage("write"):
                io.write_flo1(out / f"flow_{pair}.flo1", flow)
                io.write_msh1(out / f"mesh_{pair}.msh1", msh)
            del flow, msh  # freed before the next render, not after it
            pair_entries += [(f"flow_{pair}.flo1", note), (f"mesh_{pair}.msh1", note)]
        times.append(t)
    with _stage("write"):
        io.write_csv_rows(
            out / "times.csv",
            ["index", "time"],
            [[k, repr(t)] for k, t in enumerate(times)],
        )
    entries = frame_entries + pair_entries + [("times.csv", f"count={len(times)}")]
    return entries, f"gen: {len(times)} frames, {len(times) - 1} intervals"


def _sweep_config(cfg, seed: int):
    with _config(cfg):
        scene = _scene_from_config(cfg, seed)
        thresholds = _floats(cfg.pop("thresholds", "0.2"))
        bins = int(cfg.pop("bins", "5"))
    return scene, thresholds, bins


def _evt1_names(thresholds) -> list[str]:
    return [f"events_{k:02d}_c{c:g}.evt1" for k, c in enumerate(thresholds)]


def _sweep(scene: Scene, thresholds, bins: int, paths):
    """Simulate the sweep into one EVT1 file per threshold: (event counts, densities).

    Each interval's final keys are decoded and appended to their files as
    the sweep runs, so no threshold's events are held.  Each file's density
    is then voxelized from the file through its writer's descriptor, so
    every file is opened once.  A sweep that fails leaves each file with
    the writer's placeholder header, which no reader accepts.
    """
    swept = _swept_keys(_rendered(scene), thresholds)
    with ExitStack() as files:
        writers, held = [], [[] for _ in paths]
        while True:
            with _stage("simulate"):
                step = next(swept, None)
            if step is not None:
                (height, width), t_start, _, ready = step
                for keys, key in zip(held, ready):
                    keys.append(key)
            with _stage("write"):
                if not writers:
                    writers = [
                        files.enter_context(io.Evt1Writer(path, width, height))
                        for path in paths
                    ]
                # A block or more of keys at a time, so that many small
                # intervals cost one decode and one append.
                for writer, keys in zip(writers, held):
                    if keys and (step is None or sum(map(len, keys)) >= events._BLOCK):
                        writer.append(*_decoded_keys(np.concatenate(keys), width, height, t_start))
                        keys.clear()
            if step is None:
                break
        with _stage("write"):
            handles = [writer.finish() for writer in writers]
        with _stage("voxelize"):
            densities = [density(voxelize(handle, bins)) for handle in handles]
        return [len(writer) for writer in writers], densities


def cmd_simulate(cfg, out: Path, seed: int):
    scene, thresholds, bins = _sweep_config(cfg, seed)
    names = _evt1_names(thresholds)
    counts, densities = _sweep(scene, thresholds, bins, [out / name for name in names])
    entries = [
        (name, f"threshold={c:g} events={n} density={d:.9f}")
        for name, c, n, d in zip(names, thresholds, counts, densities)
    ]
    with _stage("write"):
        entries.append(_write_density(out, thresholds, counts, densities))
    return entries, f"simulate: {len(thresholds)} threshold(s)"


def cmd_density(cfg, out: Path, seed: int):
    scene, thresholds, bins = _sweep_config(cfg, seed)
    # The streams go to a directory of their own, removed however the sweep ends.
    with _stage("write"):
        work = Path(tempfile.mkdtemp(prefix=".density-", dir=out))
    try:
        paths = [work / name for name in _evt1_names(thresholds)]
        counts, densities = _sweep(scene, thresholds, bins, paths)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with _stage("write"):
        entry = _write_density(out, thresholds, counts, densities)
    return [entry], f"density: {len(thresholds)} threshold(s)"


def cmd_select(cfg, out: Path, seed: int):
    with _config(cfg):
        tokens = _require(cfg, "candidates").split(",")
        paths = [Path(tok.strip()) for tok in tokens if tok.strip()]
        if not paths:
            raise ParameterError("at least one candidate stream required")
        flow_path = Path(_require(cfg, "flow"))
    with _stage("load"):
        # Each candidate is read and checked whole, one at a time, so a bad
        # file fails here with read_evt1's message; the stream is dropped,
        # and scoring reads the file again, block by block.
        candidates = []
        for path in paths:
            io.read_evt1(path)
            candidates.append(io.Evt1File(path))
        flow = io.read_flo1(flow_path)
    with _stage("select"):
        # EVT1 stores no span, so an empty stream reads back as [0, 0]: only
        # streams with events set the interval.
        full = [s for s in candidates if len(s)]
        if not full:
            raise ParameterError("every candidate stream is empty")
        t_i, t_j = min(s.t_start for s in full), max(s.t_end for s in full)
        best, components = select_best(candidates, flow, t_i, t_j)
        rows = [[k, repr(a), repr(b), repr(a + b)] for k, (a, b) in enumerate(components)]
    with _stage("write"):
        io.write_csv_rows(
            out / "scores.csv", ["candidate_index", "var_ti", "var_tj", "total"], rows
        )
        (out / "selected.txt").write_text(f"{best}\n")
    entries = [
        ("scores.csv", f"candidates={len(candidates)}"),
        ("selected.txt", f"index={best}"),
    ]
    return entries, f"selected={best}"


def cmd_meshflow(cfg, out: Path, seed: int):
    with _config(cfg):
        flow_path = Path(_require(cfg, "flow"))
        spec = _mesh_spec(cfg)
        visualize = int(cfg.pop("visualize", "0"))
    with _stage("load"):
        flow = io.read_flo1(flow_path)
    with _stage("meshflow"):
        msh = extract_meshflow(flow, spec)
    entries = []
    with _stage("write"):
        io.write_msh1(out / "meshflow.msh1", msh)
        entries.append(
            ("meshflow.msh1", f"vertices={msh.shape[1]}x{msh.shape[0]}")
        )
        if visualize:
            dense = upsample_bilinear(msh, flow.shape[0], flow.shape[1])
            io.write_ppm(out / "meshflow.ppm", io.flow_to_color(dense))
            entries.append(("meshflow.ppm", f"size={flow.shape[1]}x{flow.shape[0]}"))
    return entries, f"meshflow: {msh.shape[1]}x{msh.shape[0]} vertices"


def cmd_eval(cfg, out: Path, seed: int):
    with _config(cfg):
        pred_path = Path(_require(cfg, "pred"))
        gt_path = Path(_require(cfg, "gt"))
        kind = cfg.pop("kind", "flow")
        magic = {"flow": b"FLO1", "meshflow": b"MSH1"}.get(kind)
        if magic is None:
            raise ParameterError(f"kind must be flow or meshflow, got {kind!r}")
        shape = None
        if kind == "meshflow":
            shape = (int(cfg.pop("height", "64")), int(cfg.pop("width", "64")))
        label = cfg.pop("label", pred_path.stem)
    with _stage("load"):
        pred = _read_flow(pred_path, shape, (magic,))
        gt = _read_flow(gt_path, shape, (magic,))
    with _stage("eval"):
        rows = [
            [label, "epe", repr(epe(pred, gt))],
            [label, "npe_1", repr(npe(pred, gt, 1.0))],
            [label, "npe_3", repr(npe(pred, gt, 3.0))],
            [label, "angular_error", repr(angular_error(pred, gt))],
            [label, "outlier_pct", repr(outlier_pct(pred, gt))],
        ]
    with _stage("write"):
        io.write_csv_rows(out / "metrics.csv", ["sequence", "metric", "value"], rows)
    summary = "\n".join(f"{name}={value}" for _, name, value in rows)
    return [("metrics.csv", f"kind={kind}")], summary


def cmd_warp(cfg, out: Path, seed: int):
    with _config(cfg):
        image_path = Path(_require(cfg, "image"))
        ref_path = Path(_require(cfg, "reference"))
        flow_path = Path(_require(cfg, "flow"))
    with _stage("load"):
        image = io.read_pgm(image_path)
        reference = io.read_pgm(ref_path)
        flow = _read_flow(flow_path, image.shape)
    with _stage("warp"):
        warped = backward_warp(image, flow)
        err_warped = alignment_error(reference, warped)
        err_identity = alignment_error(reference, image)
    with _stage("write"):
        io.write_pgm(out / "warped.pgm", warped)
        io.write_csv_rows(
            out / "alignment.csv",
            ["variant", "error"],
            [["warped", repr(err_warped)], ["identity", repr(err_identity)]],
        )
    entries = [
        ("warped.pgm", f"size={image.shape[1]}x{image.shape[0]}"),
        ("alignment.csv", f"warped={err_warped:.9f}"),
    ]
    return entries, f"alignment: warped={err_warped!r} identity={err_identity!r}"


def cmd_subsample(cfg, out: Path, seed: int):
    with _config(cfg):
        events_path = Path(_require(cfg, "events"))
        flow_path = Path(_require(cfg, "flow"))
        mode = cfg.pop("mode", "spatial")
        if mode not in ("spatial", "temporal"):
            raise ParameterError(f"mode must be spatial or temporal, got {mode!r}")
        keep_ratio = float(cfg.pop("keep_ratio", "0.5"))
        tolerance = float(cfg.pop("tolerance", "0.5"))
    with _stage("load"):
        stream = io.read_evt1(events_path)
        flow = io.read_flo1(flow_path)
    with _stage("subsample"):
        fn = spatial_guided_subsample if mode == "spatial" else temporal_guided_subsample
        kept = fn(stream, flow, keep_ratio, tolerance)
    with _stage("write"):
        io.write_evt1(out / "subsampled.evt1", kept)
    entries = [("subsampled.evt1", f"mode={mode} kept={len(kept)} of={len(stream)}")]
    return entries, f"subsample: kept {len(kept)} of {len(stream)}"


_COMMANDS = {
    "gen": (cmd_gen, "render adaptive frames, GT flow, and meshflow for a scene"),
    "simulate": (cmd_simulate, "simulate event streams over a threshold sweep"),
    "select": (cmd_select, "pick the most motion-coherent candidate stream"),
    "meshflow": (cmd_meshflow, "extract a vertex meshflow from a dense flow file"),
    "eval": (cmd_eval, "compare a predicted flow or mesh against ground truth"),
    "warp": (cmd_warp, "backward-warp an image and report alignment error"),
    "subsample": (cmd_subsample, "thin an event stream along flow trajectories"),
    "density": (cmd_density, "tabulate event density across a threshold sweep"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by later ones.

    Parsing keeps no state between calls: every call returns a fresh
    namespace, and the defaults are immutable.
    """
    parser = argparse.ArgumentParser(
        prog="evmeshflow",
        description="Synthetic event-camera meshflow pipeline.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", type=Path, help="key=value config file")
        sub.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        sub.add_argument("--seed", type=int, help="master RNG seed (overrides config)")
        sub.add_argument("--threads", type=int, help="accepted and ignored")
        sub.add_argument(
            "overrides", nargs="*", metavar="key=value", help="config overrides"
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with _stage("config"):
            cfg: dict[str, str] = {}
            if args.config is not None:
                text = args.config.read_text()
                lines = [raw.split("#", 1)[0] for raw in text.splitlines()]
                cfg.update(_parse_pairs(lines, f"{args.config} line"))
            cfg.update(_parse_pairs(args.overrides, "override"))
            # Every command uses the seed, even when --seed overrides it.
            seed_text = cfg.pop("seed", "0")
            seed = args.seed if args.seed is not None else int(seed_text)
        with _stage("setup"):
            args.out.mkdir(parents=True, exist_ok=True)
        entries, summary = _COMMANDS[args.command][0](cfg, args.out, seed)
        with _stage("write"):
            lines = [f"# {args.command} artifacts"]
            lines.extend(f"{name}\t{note}" for name, note in entries)
            (args.out / "manifest.txt").write_text("\n".join(lines) + "\n")
    except StageError as err:
        print(f"error [{err.stage}]: {err}", file=sys.stderr)
        return 1
    try:
        print(summary, flush=True)
    except BrokenPipeError:
        # The reader left early, after every artifact was written.  Point
        # stdout at devnull so the flush at shutdown raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())

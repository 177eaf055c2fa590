"""The benchmark's workloads: inputs, one timed pass, output checks, digests.

Every workload renders one fixed texture (seed TEXTURE_SEED).  The time
window [t0, t0 + 1] of pass k has its phase t0 drawn from (seed, k // 2),
so --seed moves the texture by sub-pixel amounts along the motion while
each pass does nearly the same work: texture seeds alone change event
counts by about 25%, phases by about 2%.  Passes 2j and 2j + 1 get equal
inputs, so their artifact digests must agree.  The runner clears the
package's memo caches before every pass, so no pass is served from a
cache that an earlier pass filled.

`prepare` builds the pass's inputs, `run` is the timed pass, and `check`
verifies its outputs; only `run` is timed or traced.  Library calls go
through module attributes (`scene.render_frame`, not an imported name)
so that the tracer's wrappers see them.
"""

import hashlib
import shutil
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

import numpy as np

from evmeshflow import cli, correlation, events, fusion, mesh, metrics, scene, voxel
from evmeshflow import io as evio


class PassFailure(Exception):
    """A step of a pass failed: a non-zero CLI exit or a raised error."""


TEXTURE_SEED = 7


def input_rng(seed: int, k: int, stream: int = 0) -> np.random.Generator:
    """Generator for the inputs of pass k; passes 2j and 2j + 1 share it."""
    return np.random.default_rng([seed, k // 2, stream])


@dataclass
class Clock:
    """Times the operations of one pass; spans CLI calls when traced."""

    tracer: object = None
    stages: dict = field(default_factory=lambda: defaultdict(float))
    ops: int = 0

    @contextmanager
    def stage(self, name):
        self.ops += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] += time.perf_counter() - t0

    def cli(self, command, *args):
        """Run one CLI command in-process; a non-zero exit fails the pass."""
        out, err = StringIO(), StringIO()
        span = self.tracer.span(f"cli.{command}") if self.tracer else nullcontext()
        argv = [command, *map(str, args)]
        with self.stage(command), span, redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise PassFailure(f"{command} exited {code}: {err.getvalue().strip()}")


@dataclass
class Inputs:
    k: int
    dir: Path
    scene: scene.Scene
    arrays: dict = field(default_factory=dict)

    def scene_args(self):
        """CLI arguments that reproduce `scene` (translation scenes)."""
        sc = self.scene
        return (
            "--seed", sc.texture_seed, "--threads", "1",
            f"width={sc.width}", f"height={sc.height}",
            f"t_start={sc.t_start!r}", f"t_end={sc.t_end!r}",
            "velocity=" + ",".join(repr(v) for v in sc.motion.coefficients),
        )


@dataclass
class Verdict:
    """Output checks of one pass, plus the counts the metrics need."""

    checks: list = field(default_factory=list)  # (name, ok, detail)
    counts: dict = field(default_factory=dict)
    defects: dict = field(default_factory=dict)

    def expect(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))


def file_digest(root: Path) -> str:
    """SHA-256 over every file below root, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def nearest_distance(ex, ey, s, seed_x, seed_y, flow_x, flow_y, chunk=16):
    """Brute-force distance from each event to its nearest advected seed.

    Event i is compared with every seed u + s[i] * flow(u); the arithmetic
    follows the subsampling definition term for term.  Small chunks keep
    the check's temporaries (chunk x seeds floats each) well below the
    memory of the pipeline it checks.
    """
    out = np.empty(len(ex))
    for lo in range(0, len(ex), chunk):
        sl = slice(lo, lo + chunk)
        cx = seed_x[None, :] + s[sl, None] * flow_x[None, :]
        cy = seed_y[None, :] + s[sl, None] * flow_y[None, :]
        dx = ex[sl, None] - cx
        dy = ey[sl, None] - cy
        out[sl] = np.sqrt((dx * dx + dy * dy).min(axis=1))
    return out


def normalized_times(stream):
    span = stream.t_end - stream.t_start
    if span <= 0:
        return np.zeros(len(stream))
    return (stream.t - stream.t_start) / float(span)


def spatial_keep_oracle(stream, flow, keep_ratio, tolerance):
    spacing = max(1, round(1.0 / np.sqrt(keep_ratio)))
    sy, sx = np.mgrid[0 : stream.height : spacing, 0 : stream.width : spacing]
    sx, sy = sx.ravel(), sy.ravel()
    dist = nearest_distance(
        stream.x.astype(np.float64), stream.y.astype(np.float64),
        normalized_times(stream), sx.astype(np.float64), sy.astype(np.float64),
        flow[sy, sx, 0], flow[sy, sx, 1],
    )
    return dist <= tolerance


def temporal_keep_oracle(stream, flow, keep_ratio, tolerance):
    uniq, inverse = np.unique(stream.t, return_inverse=True)
    idx = np.arange(len(uniq))
    kept_stamp = np.floor(idx * keep_ratio) > np.floor((idx - 1) * keep_ratio)
    keep = kept_stamp[inverse]
    gy, gx = np.mgrid[0 : stream.height, 0 : stream.width]
    gx, gy = gx.ravel(), gy.ravel()
    sel = np.nonzero(keep)[0]
    dist = nearest_distance(
        stream.x[sel].astype(np.float64), stream.y[sel].astype(np.float64),
        normalized_times(stream)[sel], gx.astype(np.float64), gy.astype(np.float64),
        flow[gy, gx, 0], flow[gy, gx, 1],
    )
    keep[sel] = dist <= tolerance
    return keep


def same_events(a, b) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in "xytp")


class Workload:
    name = ""
    # Clock stages whose summed time divides `counts["items"]` for items_per_s.
    rate_stages: tuple = ()

    size = 256
    motion: scene.MotionSpec

    def __init__(self, seed: int, workdir: Path, defects: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.defects = defects  # measure the known-defect counts too

    def prepare(self, k) -> Inputs:
        d = self.workdir / f"pass{k:04d}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        t0 = float(input_rng(self.seed, k).random())
        sc = scene.Scene(self.size, self.size, TEXTURE_SEED, self.motion, t0, t0 + 1.0)
        inputs = Inputs(k, d, sc)
        self.prepare_inputs(inputs)
        return inputs

    def prepare_inputs(self, inputs):
        pass

    def run(self, inputs: Inputs, clock: Clock):
        raise NotImplementedError

    def check(self, inputs: Inputs, outputs) -> Verdict:
        raise NotImplementedError

    def digest(self, inputs: Inputs, outputs) -> str:
        return file_digest(inputs.dir)

    def cleanup(self, inputs: Inputs):
        shutil.rmtree(inputs.dir, ignore_errors=True)


def _write_gt_flow(inputs):
    sc = inputs.scene
    full = scene.flow_between(sc, sc.t_start, sc.t_end)
    evio.write_flo1(inputs.dir / "gt_flow.flo1", full)


class EventsDense(Workload):
    """CLI chain gen -> simulate -> select -> meshflow -> eval at 256x256."""

    name = "events-dense"
    motion = scene.MotionSpec("translation", (40.0, -15.0))
    thresholds = (0.03, 0.1, 0.4)
    rate_stages = ("simulate",)

    prepare_inputs = staticmethod(_write_gt_flow)

    def run(self, inputs, clock):
        d = inputs.dir
        clock.cli("gen", "--out", d / "gen", *inputs.scene_args())
        clock.cli(
            "simulate", "--out", d / "sim", *inputs.scene_args(),
            "thresholds=" + ",".join(f"{c:g}" for c in self.thresholds),
        )
        candidates = sorted((d / "sim").glob("events_*.evt1"))
        clock.cli(
            "select", "--out", d / "sel", "--threads", "1",
            "candidates=" + ",".join(map(str, candidates)),
            f"flow={d / 'gt_flow.flo1'}",
        )
        clock.cli(
            "meshflow", "--out", d / "mesh", "--threads", "1",
            f"flow={d / 'gen' / 'flow_0000_0001.flo1'}", "visualize=1",
        )
        clock.cli(
            "eval", "--out", d / "eval", "--threads", "1", "kind=meshflow",
            f"pred={d / 'mesh' / 'meshflow.msh1'}",
            f"gt={d / 'gen' / 'mesh_0000_0001.msh1'}",
            f"width={self.size}", f"height={self.size}",
        )
        return candidates

    def check(self, inputs, candidates):
        v = Verdict()
        sc = inputs.scene
        v.expect("one stream per threshold", len(candidates) == len(self.thresholds))
        log_change = np.log(scene.render_frame(sc, sc.t_end)) - np.log(
            scene.render_frame(sc, sc.t_start)
        )
        total = 0
        for c, path in zip(self.thresholds, candidates):
            stream = evio.read_evt1(path)
            total += len(stream)
            pix = stream.y.astype(np.int64) * stream.width + stream.x
            net = np.bincount(pix, weights=stream.p, minlength=self.size * self.size)
            residual = np.abs(log_change.ravel() - c * net)
            v.expect(
                f"c={c:g}: |log I_end - log I_0 - c*sum(p)| < c at every pixel",
                np.all(residual < c), f"max residual {residual.max():.6g}",
            )
            grid_sum = voxel.voxelize(stream, 5).sum()
            v.expect(
                f"c={c:g}: voxel grid sum equals sum(p)",
                abs(grid_sum - net.sum()) <= 1e-9 * max(1, len(stream)),
                f"{grid_sum!r} vs {net.sum()!r}",
            )
        totals = [
            float(line.split(",")[3])
            for line in (inputs.dir / "sel" / "scores.csv").read_text().splitlines()[1:]
        ]
        selected = int((inputs.dir / "sel" / "selected.txt").read_text())
        v.expect(
            "selected.txt is the argmax of scores.csv",
            len(totals) == len(candidates) and selected == int(np.argmax(totals)),
            f"selected {selected}, totals {totals}",
        )
        v.counts = {"items": total, "simulate": total, "select": total}
        return v


class EventsGuided(Workload):
    """CLI simulate at 64x64, then spatial and temporal guided subsampling."""

    name = "events-guided"
    size = 64
    motion = scene.MotionSpec("translation", (8.0, -3.0))
    threshold = 0.2
    modes = (("spatial", 0.25), ("temporal", 0.5))
    tolerance = 0.5
    rate_stages = ("subsample",)

    prepare_inputs = staticmethod(_write_gt_flow)

    def run(self, inputs, clock):
        d = inputs.dir
        clock.cli(
            "simulate", "--out", d / "sim", *inputs.scene_args(),
            f"thresholds={self.threshold:g}",
        )
        (events_path,) = sorted((d / "sim").glob("events_*.evt1"))
        for mode, keep_ratio in self.modes:
            clock.cli(
                "subsample", "--out", d / mode, "--threads", "1",
                f"events={events_path}", f"flow={d / 'gt_flow.flo1'}",
                f"mode={mode}", f"keep_ratio={keep_ratio:g}",
                f"tolerance={self.tolerance:g}",
            )
        return events_path

    def check(self, inputs, events_path):
        v = Verdict()
        d = inputs.dir
        stream = evio.read_evt1(events_path)
        flow = evio.read_flo1(d / "gt_flow.flo1")
        oracles = {"spatial": spatial_keep_oracle, "temporal": temporal_keep_oracle}
        kept_cli = {}
        for mode, keep_ratio in self.modes:
            kept = evio.read_evt1(d / mode / "subsampled.evt1")
            kept_cli[mode] = len(kept)
            mask = oracles[mode](stream, flow, keep_ratio, self.tolerance)
            v.expect(
                f"{mode} keep mask matches the brute-force distance oracle",
                same_events(kept, stream.select(mask)),
                f"CLI kept {len(kept)}, oracle kept {int(mask.sum())}",
            )
        v.counts = {"items": len(stream), "subsample": len(stream)}
        if self.defects and inputs.k == 0:
            v.defects["io.evt1_span_drift"] = self._span_drift(inputs, flow, kept_cli)
        return v

    def _span_drift(self, inputs, flow, kept_cli):
        """Kept-count difference, library on the in-memory stream vs the CLI.

        EVT1 stores no stream span, so the CLI subsamples a stream whose
        span was re-derived from its first and last event.
        """
        sc = inputs.scene
        frames = events.render_sequence(sc, scene.adaptive_timestamps(sc, sc.t_start, sc.t_end))
        stream = events.simulate(frames, self.threshold)
        library = {
            "spatial": events.spatial_guided_subsample,
            "temporal": events.temporal_guided_subsample,
        }
        return sum(
            abs(kept_cli[mode] - len(library[mode](stream, flow, keep_ratio, self.tolerance)))
            for mode, keep_ratio in self.modes
        )


class FlowOps(Workload):
    """Library calls without events on an affine scene at 256x256."""

    name = "flow-ops"
    motion = scene.MotionSpec("affine", (0.035, -0.07, 4.5, 0.07, 0.025, -3.5))
    cells = 16
    channels = 32
    radius = 4
    # Every stage that works frame by frame; adaptive sampling alone lasts
    # about 0.2 s, too short for a steady rate.
    rate_stages = (
        "adaptive_timestamps", "render_frame", "flow_between", "extract_meshflow",
        "backward_warp",
    )

    def prepare_inputs(self, inputs):
        rng = input_rng(self.seed, inputs.k, 1)
        n = self.size
        weights = rng.random((9, n, n))
        inputs.arrays = {
            "features": rng.standard_normal((self.channels, n, n)),
            "attention": fusion.AttentionOperator(3, weights / weights.sum(axis=0)),
            "delta": 0.5 * rng.standard_normal((n, n, 2)),
            "confidence": rng.random((n, n)),
        }

    def run(self, inputs, clock):
        sc = inputs.scene
        n = self.size
        spec = mesh.MeshGridSpec(self.cells, self.cells)
        arr = inputs.arrays
        with clock.stage("adaptive_timestamps"):
            times = scene.adaptive_timestamps(sc, sc.t_start, sc.t_end)
        with clock.stage("render_frame"):
            frames = [scene.render_frame(sc, t) for t in times]
        with clock.stage("flow_between"):
            pairs = list(zip(times, times[1:]))
            flows = [scene.flow_between(sc, a, b) for a, b in pairs]
        with clock.stage("extract_meshflow"):
            meshes = [mesh.extract_meshflow(f, spec) for f in flows]
        with clock.stage("backward_warp"):
            align = [
                mesh.alignment_error(
                    frames[i], mesh.backward_warp(frames[i + 1], mesh.upsample_bilinear(m, n, n))
                )
                for i, m in enumerate(meshes)
            ]
        with clock.stage("full_interval_meshflow"):
            full = scene.flow_between(sc, sc.t_start, sc.t_end)
            full_mesh = mesh.extract_meshflow(full, spec)
            flow_bar = mesh.upsample_bilinear(full_mesh, n, n)
        with clock.stage("correlate"):
            grid = correlation.SearchGrid.dilated(self.radius)
            warped = correlation.warp_features(arr["features"], full)
            volume = correlation.correlate(arr["features"], warped, grid)
        with clock.stage("fuse"):
            fused = fusion.cdc_fuse(flow_bar, arr["delta"], arr["attention"])
            final = fusion.confidence_fuse(flow_bar, fused, arr["confidence"])
        with clock.stage("metrics"):
            scores = [
                (
                    metrics.epe(pred, full), metrics.npe(pred, full, 1.0),
                    metrics.npe(pred, full, 3.0), metrics.angular_error(pred, full),
                    metrics.outlier_pct(pred, full),
                )
                for pred in (flow_bar, fused, final)
            ]
        return dict(
            times=times, pairs=pairs, meshes=meshes, align=align, full=full,
            full_mesh=full_mesh, flow_bar=flow_bar, warped=warped, volume=volume,
            fused=fused, final=final, scores=scores,
        )

    def check(self, inputs, out):
        v = Verdict()
        sc = inputs.scene
        n, cells = self.size, self.cells
        peak = 0.0
        for a, b in out["pairs"]:
            for fwd in (scene.flow_between(sc, a, b), scene.flow_between(sc, b, a)):
                peak = max(peak, float(np.hypot(fwd[..., 0], fwd[..., 1]).max()))
        v.expect("every adaptive interval moves at most 1 + 1e-9 px", peak <= 1.0 + 1e-9, f"peak {peak!r}")

        # Vertices 2..cells-2 receive all 16 cell candidates; an affine field
        # is reconstructed there exactly.  The rest form the border band.
        pos = np.arange(cells + 1) * (n / cells)
        vx, vy = np.meshgrid(pos, pos)
        inner = slice(2, cells - 1)
        worst = 0.0
        intervals = out["pairs"] + [(sc.t_start, sc.t_end)]
        for (a, b), m in zip(intervals, out["meshes"] + [out["full_mesh"]]):
            gx, gy = scene.flow_at_points(sc, a, b, vx, vy)
            err = np.hypot(m[..., 0] - gx, m[..., 1] - gy)[inner, inner]
            worst = max(worst, float(err.max()))
        v.expect("interior-vertex meshflow EPE <= 1e-9", worst <= 1e-9, f"max {worst:.3g}")

        lo, hi = 2 * n // cells, (cells - 2) * n // cells
        band = np.ones((n, n), dtype=bool)
        band[lo : hi + 1, lo : hi + 1] = False
        err = out["flow_bar"] - out["full"]
        v.defects["mesh.border_epe"] = float(np.hypot(err[..., 0], err[..., 1])[band].mean())

        volume, feats, warped = out["volume"], inputs.arrays["features"], out["warped"]
        rng = input_rng(self.seed, inputs.k, 2)
        m = rng.integers(0, len(volume.offsets), 256)
        y = rng.integers(0, n, 256)
        x = rng.integers(0, n, 256)
        dx, dy = volume.offsets[m, 0], volume.offsets[m, 1]
        inside = (x + dx >= 0) & (x + dx < n) & (y + dy >= 0) & (y + dy < n)
        direct = np.where(
            inside,
            np.einsum(
                "ci,ci->i", feats[:, y, x],
                warped[:, np.clip(y + dy, 0, n - 1), np.clip(x + dx, 0, n - 1)],
            ) / len(volume.offsets),
            0.0,
        )
        sampled = volume.scores[m, y, x]
        v.expect(
            "sampled correlate entries match direct dot products",
            np.allclose(sampled, direct, rtol=1e-12, atol=1e-12),
            f"max difference {np.abs(sampled - direct).max():.3g}",
        )
        v.counts = {"items": len(out["times"])}
        return v

    def digest(self, inputs, out):
        return array_digest(
            np.asarray(out["times"]), *out["meshes"], np.asarray(out["align"]),
            out["volume"].scores, out["fused"], out["final"], np.asarray(out["scores"]),
        )


WORKLOADS = {w.name: w for w in (EventsDense, EventsGuided, FlowOps)}

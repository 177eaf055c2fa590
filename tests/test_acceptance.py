"""Acceptance checks: one test per criterion, each printing a summary line.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion; add `-s` to see the printed CRITERION summaries for passing
checks as well.
"""

import time

import numpy as np
import pytest

from evmeshflow import (
    EventStream,
    MeshGridSpec,
    MotionSpec,
    Scene,
    SearchGrid,
    adaptive_timestamps,
    alignment_error,
    angular_error,
    backward_warp,
    cdc_fuse,
    confidence_fuse,
    correlate,
    density,
    downsample_to_mesh,
    epe,
    extract_meshflow,
    f2_smooth,
    flow_between,
    mdc_loss,
    multi_density_sweep,
    npe,
    outlier_pct,
    read_flo1,
    render_frame,
    render_sequence,
    seeded_rng,
    select_best,
    shuffle_timestamps,
    simulate,
    total_loss,
    two_sided_components,
    upsample_bilinear,
    voxelize,
    AttentionOperator,
)
from evmeshflow.cli import main as cli_main

from _oracles import naive_correlate, scalar_simulate


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {num:02d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _constant_flow(h, w, u, v):
    flow = np.empty((h, w, 2))
    flow[..., 0] = u
    flow[..., 1] = v
    return flow


def test_criterion_01_dilated_mask_counts():
    start = time.perf_counter()
    offsets = {r: SearchGrid.dilated(r).offsets for r in (1, 2, 4)}
    elapsed = time.perf_counter() - start
    counts = {r: len(o) for r, o in offsets.items()}
    reach = {r: int(np.abs(o).max()) for r, o in offsets.items()}
    ok = (
        counts[4] == 49
        and counts[2] == 21
        and counts[1] == 9
        and counts[4] == 7**2
        and all(reach[r] == r for r in offsets)
        and elapsed < 1.0
    )
    _report(1, "dilated window counts", ok, f"r4={counts[4]}/81 r2={counts[2]}/25 r1={counts[1]}/9, reach {reach[4]}/{reach[2]}/{reach[1]} px, in {elapsed:.4f}s")


def test_criterion_02_correlation_oracle():
    rng = seeded_rng(202)
    worst = 0.0
    pairs = 0
    for k in range(100):
        feat_a = rng.normal(size=(4, 8, 8))
        feat_b = rng.normal(size=(4, 8, 8))
        grid = SearchGrid.dilated(2)
        got = correlate(feat_a, feat_b, grid).scores
        want = naive_correlate(feat_a, feat_b, grid.offsets, grid.active_count)
        worst = max(worst, float(np.abs(got - want).max()))
        pairs += 1
    for k in range(3):
        feat_a = rng.normal(size=(4, 9, 9))
        feat_b = rng.normal(size=(4, 9, 9))
        grid = SearchGrid.dilated(4)
        got = correlate(feat_a, feat_b, grid).scores
        want = naive_correlate(feat_a, feat_b, grid.offsets, grid.active_count)
        worst = max(worst, float(np.abs(got - want).max()))
        pairs += 1
    _report(2, "correlation oracle", worst <= 1e-6, f"{pairs} pairs, max |diff| {worst:.2e}")


def test_criterion_03_event_simulator_oracle():
    rng = seeded_rng(303)
    sequences = 0
    events_total = 0
    mismatches = 0
    worst_dt = 0
    for k in range(100):
        values = np.exp(rng.uniform(-1.2, 1.2, size=(20, 4, 4)))
        times = np.cumsum(rng.uniform(0.01, 0.15, size=20))
        threshold = float(rng.uniform(0.05, 0.7))
        stream = simulate(zip(times, values), threshold)
        expected = scalar_simulate(values, times, threshold)
        sequences += 1
        if len(stream) != len(expected):
            mismatches += 1
            continue
        events_total += len(expected)
        for i, (te, ye, xe, pe) in enumerate(expected):
            if (
                int(stream.y[i]) != ye
                or int(stream.x[i]) != xe
                or int(stream.p[i]) != pe
            ):
                mismatches += 1
                break
            dt = abs(int(stream.t[i]) - te)
            worst_dt = max(worst_dt, dt)
            if dt > 1:
                mismatches += 1
                break
    ok = mismatches == 0 and sequences == 100
    _report(3, "event simulator oracle", ok, f"{sequences} sequences, {events_total} events, max |dt| {worst_dt} us, {mismatches} mismatches")


def test_criterion_04_voxel_mass_conservation():
    rng = seeded_rng(404)
    worst_rel = 0.0
    for k in range(20):
        n = int(rng.integers(5, 400))
        t = np.sort(rng.integers(0, 50_000, size=n))
        stream = EventStream(
            rng.integers(0, 12, size=n),
            rng.integers(0, 10, size=n),
            t,
            rng.choice([-1, 1], size=n),
            12,
            10,
            int(t.min()),
            int(t.max()),
        )
        bins = int(rng.integers(1, 9))
        grid = voxelize(stream, bins)
        total = float(stream.p.sum())
        rel = abs(float(grid.sum()) - total) / max(1.0, abs(total))
        worst_rel = max(worst_rel, rel)
    single = voxelize(EventStream([3], [2], [7], [-1], 8, 8, 0, 10), 5)
    unit_mass = float(np.abs(single).sum())
    ok = worst_rel <= 1e-5 and unit_mass == pytest.approx(1.0, abs=1e-12)
    _report(4, "voxel mass conservation", ok, f"20 streams, worst rel err {worst_rel:.2e}, single-event mass {unit_mass}")


def test_criterion_05_density_behavior():
    zero_d = density(np.zeros((5, 6, 6)))
    full_d = density(np.ones((5, 6, 6)))
    scene = Scene(32, 32, 55, MotionSpec("translation", (8.0, 3.0)))
    times = adaptive_timestamps(scene, 0.0, 1.0)
    frames = render_sequence(scene, times)
    thresholds = [round(0.05 + 0.1 * k, 2) for k in range(10)]  # 0.05 .. 0.95
    streams = multi_density_sweep(frames, thresholds)
    densities = [density(voxelize(s, 5)) for s in streams]
    monotone = all(a >= b for a, b in zip(densities, densities[1:]))
    ok = zero_d == 0.0 and full_d == 1.0 and monotone
    _report(5, "density behavior", ok, f"zero={zero_d} full={full_d} sweep {densities[0]:.3f}..{densities[-1]:.3f} monotone={monotone}")


def test_criterion_06_contrast_selection():
    scene = Scene(32, 32, 66, MotionSpec("translation", (8.0, 3.0)))
    times = adaptive_timestamps(scene, 0.0, 1.0)
    frames = render_sequence(scene, times)
    stream = simulate(frames, 0.2)
    flow = flow_between(scene, 0.0, 1.0)
    assert float(np.hypot(flow[..., 0], flow[..., 1]).max()) >= 2.0
    t0, t1 = stream.t_start, stream.t_end
    gt_score = sum(two_sided_components(stream, flow, t0, t1))
    zero_score = sum(two_sided_components(stream, np.zeros_like(flow), t0, t1))
    wins = 0
    for k in range(100):
        shuffled = shuffle_timestamps(stream, seeded_rng(606, k))
        if select_best([shuffled, stream], flow, t0, t1)[0] == 1:
            wins += 1
    ok = gt_score > zero_score and wins >= 95
    _report(6, "contrast-based selection", ok, f"gt={gt_score:.4f} zero={zero_score:.4f}, coherent wins {wins}/100")


def _candidate_centroids(centers, cells):
    """Per vertex v, the mean center of cells v-2..v+1 clipped to the grid."""
    return np.array(
        [centers[max(0, v - 2) : min(cells, v + 2)].mean() for v in range(cells + 1)]
    )


def test_criterion_07_meshflow_exactness():
    # The border is clipped (fewer candidates, truncated f2 windows) so that
    # outlier regions at the image edge are still rejected.  The contract is
    # therefore: affine fields are exact at least 3 cells in from the border
    # (f1 is exact from vertex 2, and f2's window there still reads the
    # biased vertex 1), and every vertex's f1 median is the field at the
    # centroid of its candidate cell centers.
    spec = MeshGridSpec(16, 16)
    h = w = 64  # 4-px cells

    constant = _constant_flow(h, w, 3.25, -1.5)
    const_epe = epe(upsample_bilinear(extract_meshflow(constant, spec), h, w), constant)

    def affine_at(x, y):
        return np.stack([0.01 * x + 0.03 * y + 2.0, -0.02 * x + 0.01 * y - 1.0], axis=-1)

    gy, gx = np.mgrid[0:h, 0:w].astype(np.float64)
    affine = affine_at(gx, gy)
    affine_mesh = extract_meshflow(affine, spec)
    dense = upsample_bilinear(affine_mesh, h, w)
    affine_epe = epe(dense, affine)

    # Pixels whose vertex coordinate (as upsample_bilinear maps them) lies at
    # least 3 cells from every border.
    rows = np.arange(h) * (spec.cells_y / h)
    cols = np.arange(w) * (spec.cells_x / w)
    rows_in = (rows >= 3) & (rows <= spec.cells_y - 3)
    cols_in = (cols >= 3) & (cols <= spec.cells_x - 3)
    err = np.hypot(*np.moveaxis(dense - affine, -1, 0))[np.ix_(rows_in, cols_in)]
    interior_max = float(err.max())

    centers = (np.arange(16) + 0.5) * 4  # 4-px cells on both axes
    cx, cy = np.meshgrid(
        _candidate_centroids(centers, spec.cells_x),
        _candidate_centroids(centers, spec.cells_y),
    )
    predicted = f2_smooth(affine_at(cx, cy))
    mesh_dev = float(np.abs(predicted - affine_mesh).max())

    background = _constant_flow(h, w, 2.0, 1.0)
    patched = background.copy()
    patched[28:36, 30:34] = (80.0, 80.0)  # two cell centers become outliers
    mesh = extract_meshflow(patched, spec)
    vertices_clean = bool(
        np.allclose(mesh[..., 0], 2.0) and np.allclose(mesh[..., 1], 1.0)
    )
    robust_epe = epe(upsample_bilinear(mesh, h, w), background)
    naive_epe = epe(upsample_bilinear(downsample_to_mesh(patched, spec), h, w), background)

    corner = background.copy()
    corner[0:4, 0:8] = (80.0, 80.0)  # the two cell centers next to vertex (0, 0)
    corner_mesh = extract_meshflow(corner, spec)
    corner_dev = float(np.abs(corner_mesh - (2.0, 1.0)).max())

    const_ok = const_epe <= 1e-6
    interior_ok = interior_max <= 1e-6
    border_ok = mesh_dev <= 1e-9
    patch_ok = vertices_clean and robust_epe < naive_epe
    corner_ok = corner_dev <= 1e-9
    ok = const_ok and interior_ok and border_ok and patch_ok and corner_ok
    _report(
        7,
        "meshflow exactness",
        ok,
        f"constant EPE {const_epe:.2e}; affine EPE {affine_epe:.2e} over the whole "
        f"image, max {interior_max:.2e} at >= 3 cells from the border; border "
        f"vertices vs candidate-centroid rule max |diff| {mesh_dev:.2e}; outlier "
        f"patch clean={vertices_clean}, robust {robust_epe:.2e} < naive "
        f"{naive_epe:.2e}; corner patch max deviation {corner_dev:.2e}",
    )


def test_criterion_08_adaptive_sampling_displacement(tmp_path, capsys):
    scenes = [
        ["velocity=10,0"],
        ["velocity=3.5,-7.2"],
        ["velocity=5,2", "accel=4,-3"],
        ["velocity=0.8,0.3"],
        ["velocity=12,-9"],
        ["motion=affine", "generator=0.05,0.2,4,-0.15,0.05,2"],
        ["motion=affine", "generator=0.1,0,0,0,0.1,0"],
        ["motion=affine", "generator=0,0.3,1,-0.3,0,1"],
        ["motion=homography", "generator=0,0,5,0,0,2,0.002,0.001"],
        ["motion=homography", "generator=0.05,0.1,2,-0.1,0.05,1,0.001,0.002"],
    ]
    worst = 0.0
    frame_counts = []
    for k, overrides in enumerate(scenes):
        out = tmp_path / f"scene_{k:02d}"
        code = cli_main(
            ["gen", "--out", str(out), "--seed", str(k), "width=32", "height=32"]
            + overrides
        )
        capsys.readouterr()
        assert code == 0
        flows = sorted(out.glob("flow_*.flo1"))
        frame_counts.append(len(flows) + 1)
        for path in flows:
            flow = read_flo1(path)
            worst = max(worst, float(np.hypot(flow[..., 0], flow[..., 1]).max()))
    ok = worst <= 1.0 + 1e-6
    _report(8, "adaptive sampling displacement", ok, f"{len(scenes)} scenes, frames per scene {min(frame_counts)}..{max(frame_counts)}, max displacement {worst:.9f} px")


def test_criterion_09_fusion_identities():
    rng = seeded_rng(909)
    flow = rng.normal(size=(6, 6, 2))
    other = rng.normal(size=(6, 6, 2))

    conf_exact = np.array_equal(confidence_fuse(flow, other, np.ones((6, 6))), flow)

    weights = np.zeros((9, 6, 6))
    weights[4] = 1.0  # the centre of the 3 x 3 window: the identity
    op = AttentionOperator(3, weights)
    cdc_ok = all(
        np.allclose(cdc_fuse(flow, np.zeros_like(flow), op, alpha=a), flow, atol=1e-12)
        for a in (0.0, 0.6, 1.0)
    )

    grids = [rng.normal(size=(4, 4)) for _ in range(3)]
    mdc = mdc_loss(grids, grids)
    mdc_ok = abs(mdc - 0.003) <= 1e-9

    total = total_loss(1.0, 1.0, 0.0)
    total_ok = total == 10.1

    ok = conf_exact and cdc_ok and mdc_ok and total_ok
    _report(9, "fusion identities", ok, f"confidence exact={conf_exact} cdc={cdc_ok} mdc={mdc!r} total={total!r}")


def test_criterion_10_metric_oracles():
    gt = _constant_flow(4, 4, 1.0, -2.0)
    offset = gt + np.array([3.0, 4.0])
    epe_val = epe(offset, gt)
    epe_ok = abs(epe_val - 5.0) <= 1e-9

    err25 = gt + np.array([2.5, 0.0])
    npe_ok = (
        npe(gt, gt, 1.0) == 0.0
        and npe(err25, gt, 2.0) == 100.0
        and npe(err25, gt, 3.0) == 0.0
    )
    quarter = gt.copy()
    quarter[:2, :2] += np.array([10.0, 0.0])
    npe_ok = npe_ok and npe(quarter, gt, 3.0) == pytest.approx(25.0)

    ae = angular_error(_constant_flow(4, 4, 0.0, 1.0), _constant_flow(4, 4, 1.0, 0.0))
    ae_ok = abs(ae - 60.0) <= 1e-6

    big = _constant_flow(4, 4, 100.0, 0.0)
    out_ok = (
        outlier_pct(big + np.array([4.0, 0.0]), big) == 100.0
        and outlier_pct(big + np.array([2.0, 0.0]), big) == 0.0
        and outlier_pct(
            _constant_flow(4, 4, 11.0, 0.0), _constant_flow(4, 4, 10.0, 0.0)
        )
        == 100.0
    )

    ok = epe_ok and npe_ok and ae_ok and out_ok
    _report(10, "metric oracles", ok, f"epe={epe_val!r} ae={ae!r} npe_ok={npe_ok} outlier_ok={out_ok}")


def test_criterion_11_end_to_end_pipeline():
    # Alignment inequality over several seeded moving scenes.
    inequality_holds = True
    for seed in range(5):
        rng = seeded_rng(1111, seed)
        vx, vy = rng.uniform(3, 9), rng.uniform(-9, -3)
        scene = Scene(64, 64, seed, MotionSpec("translation", (float(vx), float(vy))))
        times = adaptive_timestamps(scene, 0.0, 1.0)
        frames = render_sequence(scene, times)
        stream = simulate(frames, 0.2)
        grid = voxelize(stream, 5)
        d = density(grid)
        assert 0.0 < d <= 1.0
        flow = flow_between(scene, 0.0, 1.0)
        dense = upsample_bilinear(extract_meshflow(flow), 64, 64)
        first, last = render_frame(scene, times[0]), render_frame(scene, times[-1])
        warped = backward_warp(last, dense)
        err_mesh = alignment_error(first, warped)
        err_identity = alignment_error(first, last)
        inequality_holds = inequality_holds and err_mesh < err_identity

    # Timing audit on the full-size scene.
    start = time.perf_counter()
    scene = Scene(256, 256, 99, MotionSpec("translation", (14.0, -9.0)))
    times = adaptive_timestamps(scene, 0.0, 1.0)
    frames = render_sequence(scene, times)
    stream = simulate(frames, 0.2)
    grid = voxelize(stream, 5)
    d = density(grid)
    flow = flow_between(scene, 0.0, 1.0)
    dense = upsample_bilinear(extract_meshflow(flow), 256, 256)
    first, last = render_frame(scene, times[0]), render_frame(scene, times[-1])
    warped = backward_warp(last, dense)
    err_mesh = alignment_error(first, warped)
    err_identity = alignment_error(first, last)
    elapsed = time.perf_counter() - start
    timing_ok = elapsed < 60.0 and err_mesh < err_identity and 0.0 < d <= 1.0
    ok = inequality_holds and timing_ok
    _report(11, "end-to-end pipeline", ok, f"5 scenes aligned, 256x256 run {elapsed:.2f}s (<60s), {len(stream)} events, density {d:.3f}, warp {err_mesh:.4f} < identity {err_identity:.4f}")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    def run(*argv):
        code = cli_main([str(a) for a in argv])
        capsys.readouterr()
        assert code == 0

    def snapshot(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    inputs = tmp_path / "inputs"
    run("gen", "--out", inputs, "--seed", "3", "velocity=8,-3", "width=32", "height=32")
    run(
        "simulate", "--out", inputs / "sim", "--seed", "3",
        "velocity=8,-3", "width=32", "height=32", "thresholds=0.2,0.4",
    )

    flow = inputs / "flow_0000_0001.flo1"
    gt_flow = inputs / "flow_0001_0002.flo1"
    image = inputs / "frame_0001.pgm"
    reference = inputs / "frame_0000.pgm"
    events = sorted((inputs / "sim").glob("events_*.evt1"))
    candidates = ",".join(str(p) for p in events)

    commands = {
        "gen": ["gen", "--seed", "5", "velocity=6,2", "width=32", "height=32"],
        "simulate": [
            "simulate", "--seed", "5", "velocity=6,2", "width=32", "height=32",
            "thresholds=0.15,0.3",
        ],
        "density": [
            "density", "--seed", "5", "velocity=6,2", "width=32", "height=32",
            "thresholds=0.15,0.3",
        ],
        "select": ["select", f"candidates={candidates}", f"flow={flow}"],
        "meshflow": ["meshflow", f"flow={flow}", "cells=8", "visualize=1"],
        "eval": ["eval", f"pred={flow}", f"gt={gt_flow}", "label=seq"],
        "warp": ["warp", f"image={image}", f"reference={reference}", f"flow={flow}"],
        "subsample": [
            "subsample", f"events={events[0]}", f"flow={flow}",
            "mode=spatial", "keep_ratio=0.25",
        ],
    }
    mismatched = []
    for name, argv in commands.items():
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        run(*argv, "--out", out_a)
        run(*argv, "--out", out_b)
        if snapshot(out_a) != snapshot(out_b):
            mismatched.append(name)
    ok = not mismatched
    _report(12, "CLI determinism", ok, f"{len(commands)} commands byte-identical" if ok else f"mismatch in {mismatched}")

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evmeshflow import (
    DataError,
    MeshGridSpec,
    MotionSpec,
    ParameterError,
    Scene,
    ShapeError,
    alignment_error,
    backward_warp,
    downsample_to_mesh,
    epe,
    extract_meshflow,
    f1_median,
    f2_smooth,
    flow_between,
    propagate,
    render_frame,
    seeded_rng,
    upsample_bilinear,
)
from evmeshflow.mesh import _nanmedian

from _oracles import scalar_bilinear_sample


def _constant_flow(h, w, u, v):
    flow = np.empty((h, w, 2))
    flow[..., 0] = u
    flow[..., 1] = v
    return flow


def _candidates(vectors):
    """Single-vertex (1, 1, 16, 2) candidates from a list of (u, v) pairs."""
    values = np.full((1, 1, 16, 2), np.nan)
    for k, vec in enumerate(vectors):
        values[0, 0, k] = vec
    return values


def _counts(candidates):
    """Candidates present per vertex: the slots that are not NaN."""
    return (~np.isnan(candidates[..., 0])).sum(axis=2)


def _loop_candidates(flow, spec):
    """Plain-loop propagate: slot oy * 4 + ox of vertex (vy, vx) holds the
    flow at the center of cell (vy - 2 + oy, vx - 2 + ox), NaN off the grid."""
    height, width = flow.shape[:2]
    centers = {}
    for cy in range(spec.cells_y):
        for cx in range(spec.cells_x):
            x = [(cx + 0.5) * (width / spec.cells_x)]
            y = [(cy + 0.5) * (height / spec.cells_y)]
            centers[cy, cx] = [
                scalar_bilinear_sample(flow[..., c], x, y, False)[0] for c in (0, 1)
            ]
    values = np.full((spec.vertices_y, spec.vertices_x, 16, 2), np.nan)
    for vy in range(spec.vertices_y):
        for vx in range(spec.vertices_x):
            for oy in range(4):
                for ox in range(4):
                    cy, cx = vy - 2 + oy, vx - 2 + ox
                    if 0 <= cy < spec.cells_y and 0 <= cx < spec.cells_x:
                        values[vy, vx, oy * 4 + ox] = centers[cy, cx]
    return values


def _loop_f2(mesh):
    """Plain-loop f2: median over the 3x3 window truncated at the border."""
    out = np.empty_like(mesh)
    for vy in range(mesh.shape[0]):
        for vx in range(mesh.shape[1]):
            window = mesh[max(vy - 1, 0) : vy + 2, max(vx - 1, 0) : vx + 2]
            out[vy, vx] = np.median(window.reshape(-1, 2), axis=0)
    return out



class TestSpecAndCenters:
    def test_at_least_one_cell(self):
        with pytest.raises(ParameterError):
            MeshGridSpec(0, 4)

    def test_vertex_counts(self):
        spec = MeshGridSpec(16, 16)
        assert spec.vertices_x == 17
        assert spec.vertices_y == 17

    def test_fractional_centers_sampled_exactly(self):
        # 10 px over 4 cells: centers at 1.25, 3.75, 6.25, 8.75, read off
        # a field whose x component is the pixel's x coordinate.
        flow = np.zeros((10, 10, 2))
        flow[..., 0] = np.arange(10.0)
        cands = propagate(flow, MeshGridSpec(4, 4))
        # Vertex (2, 2) receives every cell; slots 0..3 hold cells 0..3 of row 0.
        assert list(cands[2, 2, :4, 0]) == [1.25, 3.75, 6.25, 8.75]


class TestPropagate:
    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeError):
            propagate(np.zeros((8, 8)), MeshGridSpec(4, 4))

    def test_constant_flow_constant_candidates(self):
        flow = _constant_flow(32, 32, 2.0, -1.0)
        cands = propagate(flow, MeshGridSpec(4, 4))
        present = cands[~np.isnan(cands)]
        assert present.size > 0
        vals = cands.reshape(-1, 2)
        vals = vals[~np.isnan(vals[:, 0])]
        assert np.all(vals[:, 0] == 2.0)
        assert np.all(vals[:, 1] == -1.0)

    def test_interior_vertex_gets_16_candidates(self):
        cands = propagate(np.zeros((64, 64, 2)), MeshGridSpec(16, 16))
        assert np.all(_counts(cands)[2:-2, 2:-2] == 16)

    def test_corner_vertex_gets_4_candidates(self):
        cands = propagate(np.zeros((64, 64, 2)), MeshGridSpec(16, 16))
        for vy, vx in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
            assert _counts(cands)[vy, vx] == 4

    def test_edge_vertex_gets_8_candidates(self):
        cands = propagate(np.zeros((64, 64, 2)), MeshGridSpec(16, 16))
        assert _counts(cands)[0, 5] == 8
        assert _counts(cands)[5, 0] == 8

    def test_candidates_come_from_cell_centers(self):
        rng = seeded_rng(4)
        flow = rng.normal(size=(64, 64, 2))
        spec = MeshGridSpec(16, 16)
        cands = propagate(flow, spec)
        # Vertex (2, 2) receives cells (0..3, 0..3), whose centers are the
        # whole pixels (4 * cx + 2, 4 * cy + 2).
        got = {tuple(v) for v in cands[2, 2]}
        want = {tuple(flow[4 * cy + 2, 4 * cx + 2]) for cy in range(4) for cx in range(4)}
        assert got == want


    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        cells_x=st.integers(1, 6),
        cells_y=st.integers(1, 6),
        height=st.integers(1, 40),
        width=st.integers(1, 40),
    )
    @example(seed=1, cells_x=5, cells_y=1, height=13, width=45)
    @example(seed=2, cells_x=1, cells_y=4, height=28, width=3)
    @example(seed=3, cells_x=3, cells_y=3, height=9, width=15)
    def test_slots_match_plain_loop(self, seed, cells_x, cells_y, height, width):
        flow = seeded_rng(seed).normal(size=(height, width, 2))
        spec = MeshGridSpec(cells_x, cells_y)
        cands = propagate(flow, spec)
        want = _loop_candidates(flow, spec)
        assert np.array_equal(cands, want, equal_nan=True)


class TestF1Median:
    def test_empty_vertex_rejected(self):
        with pytest.raises(DataError):
            f1_median(_candidates([]))

    def test_identical_candidates(self):
        mesh = f1_median(_candidates([(3.0, -1.0)] * 5))
        assert mesh[0, 0, 0] == 3.0
        assert mesh[0, 0, 1] == -1.0

    def test_outlier_rejected_odd_count(self):
        mesh = f1_median(_candidates([(1.0, 1.0), (2.0, 2.0), (100.0, 100.0)]))
        assert mesh[0, 0, 0] == 2.0

    def test_seven_of_sixteen_outliers_rejected(self):
        vecs = [(1000.0, 1000.0)] * 7 + [(5.0, 5.0)] * 9
        mesh = f1_median(_candidates(vecs))
        assert mesh[0, 0, 0] == 5.0
        assert mesh[0, 0, 1] == 5.0

    def test_even_count_averages_middle_pair(self):
        mesh = f1_median(_candidates([(0.0, 0.0), (1.0, 2.0), (3.0, 4.0), (10.0, 10.0)]))
        assert mesh[0, 0, 0] == pytest.approx(2.0)
        assert mesh[0, 0, 1] == pytest.approx(3.0)

    def test_median_containment(self):
        rng = seeded_rng(6)
        flow = rng.normal(size=(64, 64, 2))
        cands = propagate(flow, MeshGridSpec(16, 16))
        mesh = f1_median(cands)
        lo = np.nanmin(cands, axis=2)
        hi = np.nanmax(cands, axis=2)
        assert np.all(mesh >= lo - 1e-12)
        assert np.all(mesh <= hi + 1e-12)


_ALL_NAN = np.full((1, 2, 5, 2), np.nan)


@settings(max_examples=300, deadline=None)
@given(
    values=arrays(
        np.float64,
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 16), st.just(2)),
        elements=st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf]),
            st.floats(-1e3, 1e3, allow_nan=False),
        ),
    )
)
@example(values=_ALL_NAN)
@example(values=np.array([-0.0, -0.0, 0.0, np.nan, -0.0, 0.0]).reshape(1, 1, 3, 2))
@example(values=np.array([np.inf, np.nan, np.inf, 1.0, np.nan, -np.inf]).reshape(1, 1, 3, 2))
def test_nanmedian_matches_numpy_bytes(values):
    # np.nanmedian warns on all-NaN slices and both warn where +inf and
    # -inf are the middle pair; pytest would turn either into an error.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = np.nanmedian(values, axis=2)
        got = _nanmedian(values)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestF2Smooth:
    def test_constant_mesh_unchanged(self):
        mesh = _constant_flow(5, 5, 1.5, -0.5)
        assert np.array_equal(f2_smooth(mesh), mesh)

    def test_interior_spike_removed(self):
        mesh = _constant_flow(5, 5, 1.0, 1.0)
        mesh[2, 2] = (99.0, -99.0)
        out = f2_smooth(mesh)
        assert np.all(out[..., 0] == 1.0)
        assert np.all(out[..., 1] == 1.0)

    def test_idempotent_on_smoothed_spike(self):
        mesh = _constant_flow(5, 5, 1.0, 1.0)
        mesh[2, 2] = (99.0, -99.0)
        once = f2_smooth(mesh)
        assert np.array_equal(f2_smooth(once), once)

    def test_containment(self):
        rng = seeded_rng(7)
        mesh = rng.normal(size=(9, 9, 2))
        out = f2_smooth(mesh)
        assert out[..., 0].min() >= mesh[..., 0].min() - 1e-12
        assert out[..., 0].max() <= mesh[..., 0].max() + 1e-12


    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31), rows=st.integers(1, 8), cols=st.integers(1, 8))
    @example(seed=1, rows=1, cols=6)
    @example(seed=2, rows=5, cols=1)
    def test_matches_plain_loop(self, seed, rows, cols):
        mesh = seeded_rng(seed).normal(size=(rows, cols, 2))
        assert np.array_equal(f2_smooth(mesh), _loop_f2(mesh))


class TestExtractMeshflow:
    def test_constant_flow_exact(self):
        flow = _constant_flow(64, 64, 5.0, -2.0)
        mesh = extract_meshflow(flow, MeshGridSpec(16, 16))
        assert mesh.shape == (17, 17, 2)
        assert np.allclose(mesh[..., 0], 5.0)
        assert np.allclose(mesh[..., 1], -2.0)

    def test_translation_roundtrip_epe_zero(self):
        flow = _constant_flow(64, 64, 3.25, 1.5)
        dense = upsample_bilinear(extract_meshflow(flow), 64, 64)
        assert epe(dense, flow) < 1e-6

    def test_outlier_patch_rejected(self):
        # Background (2, 1) with a patch touching two adjacent cell centers;
        # every affected vertex still sees >= 14 clean candidates.
        flow = _constant_flow(64, 64, 2.0, 1.0)
        flow[28:36, 28:36] = (50.0, -50.0)
        mesh = extract_meshflow(flow, MeshGridSpec(16, 16))
        assert np.allclose(mesh[..., 0], 2.0)
        assert np.allclose(mesh[..., 1], 1.0)

    def test_shift_equivariance(self):
        rng = seeded_rng(12)
        flow = rng.normal(size=(64, 64, 2))
        shifted = flow + np.array([4.0, -7.0])
        a = extract_meshflow(shifted)
        b = extract_meshflow(flow) + np.array([4.0, -7.0])
        assert np.allclose(a, b, atol=1e-12)

    def test_beats_naive_downsampling_on_outlier_patch(self):
        background = _constant_flow(64, 64, 2.0, 1.0)
        flow = background.copy()
        flow[30:34, 30:34] = (80.0, 80.0)  # contains vertex position (32, 32)
        spec = MeshGridSpec(16, 16)
        robust = upsample_bilinear(extract_meshflow(flow, spec), 64, 64)
        naive = upsample_bilinear(downsample_to_mesh(flow, spec), 64, 64)
        assert epe(robust, background) < epe(naive, background)

    def test_odd_pixel_cells_bias_interior_vertices(self):
        """Interior vertices of an affine field are exact for any cell size.

        Cells 3 px tall (48x64) or 45 px tall (720x1280, the paper's HREM
        resolution) with 16x16 cells put every center between two pixel
        rows.  Rounding the center to a pixel would bias every vertex by
        half a pixel times d(flow_x)/dy = 0.03; the bilinear sample at the
        real center keeps vertices 3 or more cells in exact.
        """
        spec = MeshGridSpec(16, 16)

        def affine_at(x, y):
            return np.stack([0.01 * x + 0.03 * y + 2.0, -0.02 * x - 1.0], axis=-1)

        def interior_error(h, w):
            gy, gx = np.mgrid[0:h, 0:w].astype(np.float64)
            mesh = extract_meshflow(affine_at(gx, gy), spec)
            vy, vx = np.mgrid[0 : spec.vertices_y, 0 : spec.vertices_x]
            want = affine_at(vx * (w / spec.cells_x), vy * (h / spec.cells_y))
            return float(np.hypot(*np.moveaxis(mesh - want, -1, 0))[3:-3, 3:-3].max())

        errors = {size: interior_error(*size) for size in ((48, 64), (64, 64), (720, 1280))}
        print(
            "interior vertex error: "
            + ", ".join(f"{e:.2e} px at {h}x{w}" for (h, w), e in errors.items())
        )
        assert max(errors.values()) <= 1e-9


class TestUpsampleBilinear:
    def test_constant_mesh(self):
        mesh = _constant_flow(5, 5, 2.0, 3.0)
        dense = upsample_bilinear(mesh, 40, 40)
        assert np.allclose(dense[..., 0], 2.0)
        assert np.allclose(dense[..., 1], 3.0)

    def test_linear_mesh_reproduced_exactly(self):
        vy_n = vx_n = 5
        mesh = np.zeros((vy_n, vx_n, 2))
        mesh[..., 0] = np.arange(vx_n)[None, :]  # linear in column
        dense = upsample_bilinear(mesh, 32, 32)
        xs = np.arange(32) * (4 / 32)
        assert np.allclose(dense[..., 0], xs[None, :])

    def test_vertex_positions_recover_vertex_values(self):
        rng = seeded_rng(13)
        mesh = rng.normal(size=(17, 17, 2))
        dense = upsample_bilinear(mesh, 64, 64)
        # Vertex (i, j) is at pixel (4j, 4i) for 64 px and 16 cells.
        for i in range(16):
            for j in range(16):
                assert np.allclose(dense[4 * i, 4 * j], mesh[i, j], atol=1e-12)

    @pytest.mark.parametrize(
        "height, width, cells_x, cells_y", [(23, 37, 5, 3), (30, 19, 4, 7)]
    )
    def test_matches_per_component_scalar_oracle_bytes(
        self, height, width, cells_x, cells_y
    ):
        mesh = seeded_rng(17).normal(size=(cells_y + 1, cells_x + 1, 2))
        dense = upsample_bilinear(mesh, height, width)
        gx, gy = np.meshgrid(
            np.arange(width) * (cells_x / width), np.arange(height) * (cells_y / height)
        )
        want = np.stack(
            [
                scalar_bilinear_sample(mesh[..., c], gx.ravel(), gy.ravel(), False)
                for c in (0, 1)
            ],
            axis=-1,
        ).reshape(height, width, 2)
        assert dense.dtype == np.float64 and dense.shape == (height, width, 2)
        assert dense.flags.c_contiguous
        assert dense.tobytes() == want.tobytes()

    def test_dimension_validation(self):
        with pytest.raises(ParameterError):
            upsample_bilinear(np.zeros((3, 3, 2)), 0, 8)
        with pytest.raises(ShapeError):
            upsample_bilinear(np.zeros((1, 3, 2)), 8, 8)


class TestBackwardWarp:
    def test_zero_flow_identity(self):
        rng = seeded_rng(14)
        image = rng.uniform(0.1, 1.0, size=(16, 16))
        out = backward_warp(image, np.zeros((16, 16, 2)))
        assert np.allclose(out, image)

    def test_unit_translation_shifts_columns(self):
        rng = seeded_rng(15)
        image = rng.uniform(0.1, 1.0, size=(8, 8))
        out = backward_warp(image, _constant_flow(8, 8, 1.0, 0.0))
        assert np.allclose(out[:, :-1], image[:, 1:])

    def test_constant_image_unchanged(self):
        image = np.full((8, 8), 0.6)
        flow = seeded_rng(16).normal(size=(8, 8, 2)) * 3
        assert np.allclose(backward_warp(image, flow), 0.6)

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            backward_warp(np.zeros((4, 4, 1)), np.zeros((4, 4, 2)))
        with pytest.raises(ShapeError):
            backward_warp(np.zeros((4, 4)), np.zeros((8, 8, 2)))


class TestAlignmentError:
    def test_identical_images(self):
        image = np.ones((4, 4))
        assert alignment_error(image, image) == 0.0

    def test_constant_offset(self):
        a = np.zeros((4, 4))
        assert alignment_error(a, a + 0.5) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            alignment_error(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_mesh_warp_beats_identity_on_translation(self):
        scene = Scene(64, 64, 3, MotionSpec("translation", (6.0, -4.0)))
        frame_i = render_frame(scene, 0.0)
        frame_j = render_frame(scene, 1.0)
        flow = flow_between(scene, 0.0, 1.0)
        mesh = extract_meshflow(flow, MeshGridSpec(16, 16))
        dense = upsample_bilinear(mesh, 64, 64)
        warped = backward_warp(frame_j, dense)
        assert alignment_error(frame_i, warped) < alignment_error(frame_i, frame_j)

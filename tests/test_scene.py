import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmeshflow import scene as scene_module
from evmeshflow import (
    DataError,
    MotionSpec,
    ParameterError,
    RangeError,
    Scene,
    StepLimitError,
    adaptive_timestamps,
    flow_at_points,
    flow_between,
    render_frame,
    seeded_rng,
)

from _oracles import dense_peak_displacement, dense_peak_speed, dense_render, dense_texture


def _translation_scene(vx=2.0, vy=1.0, seed=5, size=16):
    return Scene(size, size, seed, MotionSpec("translation", (vx, vy)))


def _texture_of(scene):
    return scene_module._texture(scene.texture_seed, scene.height, scene.width)


def _affine_scene(seed=5, size=16):
    gen = (0.05, -0.02, 1.5, 0.03, -0.04, -0.8)
    return Scene(size, size, seed, MotionSpec("affine", gen))


class TestMotionSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            MotionSpec("spline", (1.0, 2.0))

    def test_translation_coefficient_counts(self):
        MotionSpec("translation", (1.0, 2.0))
        MotionSpec("translation", (1.0, 2.0, 0.5, 0.5))
        with pytest.raises(ParameterError):
            MotionSpec("translation", (1.0,))

    def test_matrix_coefficient_counts(self):
        MotionSpec("affine", (0.0,) * 6)
        MotionSpec("homography", (0.0,) * 8)
        with pytest.raises(ParameterError):
            MotionSpec("affine", (0.0,) * 5)
        with pytest.raises(ParameterError):
            MotionSpec("homography", (0.0,) * 6)

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(ParameterError):
            MotionSpec("translation", (np.nan, 0.0))

    def test_list_coefficients_equal_tuple(self):
        as_list = MotionSpec("affine", [0.1, 0, 0, 0, 0.1, 0])
        as_tuple = MotionSpec("affine", (0.1, 0.0, 0.0, 0.0, 0.1, 0.0))
        assert as_list == as_tuple
        frames = [render_frame(Scene(16, 16, 3, m), 0.5) for m in (as_list, as_tuple)]
        assert frames[0].tobytes() == frames[1].tobytes()

    def test_translation_has_no_generator(self):
        with pytest.raises(ParameterError):
            MotionSpec("translation", (1.0, 0.0)).generator()

    @pytest.mark.parametrize("kind, n", [("affine", 6), ("homography", 8)])
    @pytest.mark.parametrize("method", ["offset", "velocity"])
    def test_matrix_kinds_have_no_translation(self, method, kind, n):
        motion = MotionSpec(kind, (0.1,) + (0.0,) * (n - 1))
        with pytest.raises(ParameterError):
            getattr(motion, method)(1.0)


class TestScene:
    def test_dimensions_validated(self):
        with pytest.raises(ParameterError):
            Scene(4, 16, 0, MotionSpec("translation", (0.0, 0.0)))
        with pytest.raises(ParameterError):
            Scene(16, 7, 0, MotionSpec("translation", (0.0, 0.0)))

    def test_time_ordering_validated(self):
        with pytest.raises(ParameterError):
            Scene(
                16, 16, 0, MotionSpec("translation", (0.0, 0.0)),
                t_start=1.0, t_end=0.5,
            )

    def test_out_of_range_time_rejected(self):
        scene = _translation_scene()
        with pytest.raises(RangeError):
            render_frame(scene, 1.5)
        with pytest.raises(RangeError):
            flow_between(scene, -0.1, 0.5)


class TestTexture:
    def test_deterministic_for_seed(self):
        a = _texture_of(_translation_scene(seed=9))
        b = _texture_of(_translation_scene(seed=9))
        assert np.array_equal(a, b)

    def test_seed_changes_texture(self):
        a = _texture_of(_translation_scene(seed=1))
        b = _texture_of(_translation_scene(seed=2))
        assert not np.array_equal(a, b)

    def test_range_spans_floor_to_one(self):
        scene = _translation_scene()
        tex = _texture_of(scene)
        assert tex.min() == pytest.approx(scene_module._INTENSITY_FLOOR)
        assert tex.max() == pytest.approx(1.0)

    @pytest.mark.parametrize("height, width", [(8, 13), (21, 9), (16, 16)])
    def test_matches_dense_texture_bytes(self, height, width):
        scene = Scene(width, height, 4, MotionSpec("translation", (1.0, 0.0)))
        expected = dense_texture(4, height, width)
        tex = _texture_of(scene)
        assert tex[:height, :width].tobytes() == expected.tobytes()
        # The wrap pad repeats the first rows and columns.
        pad = scene_module._WRAP_PAD
        assert tex.shape == (height + pad, width + pad)
        assert np.array_equal(tex[height:], tex[:pad])
        assert np.array_equal(tex[:, width:], tex[:, :pad])

    def test_rng_streams_are_independent(self):
        a = seeded_rng(3, 0).standard_normal(8)
        b = seeded_rng(3, 1).standard_normal(8)
        c = seeded_rng(3, 0).standard_normal(8)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)


class TestRenderFrame:
    def test_same_time_bit_identical(self):
        scene = _translation_scene()
        assert np.array_equal(render_frame(scene, 0.3), render_frame(scene, 0.3))

    def test_static_scene_constant_in_time(self):
        scene = _translation_scene(0.0, 0.0)
        assert np.array_equal(render_frame(scene, 0.0), render_frame(scene, 1.0))

    def test_unit_translation_shifts_columns(self):
        scene = _translation_scene(1.0, 0.0)
        f0 = render_frame(scene, 0.0)
        f1 = render_frame(scene, 1.0)
        assert np.allclose(f1[:, 1:], f0[:, :-1], atol=1e-12)

    def test_mod_outside_is_np_mod_byte_for_byte(self):
        # Positions inside (0, size) skip np.mod; the rest, zeros of either
        # sign included (np.mod maps -0.0 to +0.0), go through it.
        size = 7
        v = np.array(
            [-0.0, 0.0, -1e-300, -1e-17, 1e-300, 3.5, size - 1e-15, size, size + 0.25,
             -7.0, -8.5, 1e9, np.nan]
        )
        before = v.tobytes()
        assert scene_module._mod_outside(v, size).tobytes() == np.mod(v, size).tobytes()
        assert v.tobytes() == before
        inside = np.array([[0.5, 6.75]])
        assert scene_module._mod_outside(inside, size).tobytes() == inside.tobytes()

    def test_values_respect_floor(self):
        scene = _translation_scene()
        frame = render_frame(scene, 0.4)
        assert frame.min() >= scene_module._INTENSITY_FLOOR - 1e-12
        assert frame.max() <= 1.0 + 1e-12


class TestRenderOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["translation", "accelerated", "affine", "homography"]),
        width=st.integers(8, 40),
        extra=st.integers(1, 30),
        tall=st.booleans(),
        seed=st.integers(0, 2**16),
        velocity=st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)),
        matrix=st.tuples(*[st.floats(-0.05, 0.05)] * 4),
        projective=st.tuples(st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3)),
        t=st.floats(0.0, 1.0),
    )
    def test_matches_dense_render_bytes(
        self, kind, width, extra, tall, seed, velocity, matrix, projective, t
    ):
        # Never square, so a transposed (H, 1) / (1, W) pair cannot pass.
        height = width + extra
        if not tall:
            width, height = height, width
        a11, a12, a21, a22 = matrix
        affine = (a11, a12, velocity[0], a21, a22, velocity[1])
        motion = {
            "translation": MotionSpec("translation", velocity),
            "accelerated": MotionSpec("translation", velocity + (a11 * 400, a22 * 400)),
            "affine": MotionSpec("affine", affine),
            "homography": MotionSpec("homography", affine + projective),
        }[kind]
        scene = Scene(width, height, seed, motion)
        frame = render_frame(scene, t)
        assert frame.shape == (height, width)
        assert frame.tobytes() == dense_render(scene, t).tobytes()


class TestFlowBetween:
    def test_translation_constant_flow(self):
        flow = flow_between(_translation_scene(2.0, 1.0), 0.0, 1.0)
        assert np.allclose(flow[..., 0], 2.0)
        assert np.allclose(flow[..., 1], 1.0)

    def test_equal_times_zero_flow(self):
        flow = flow_between(_affine_scene(), 0.4, 0.4)
        assert np.allclose(flow, 0.0, atol=1e-12)

    def test_affine_matches_point_tracking_oracle(self):
        scene = _affine_scene()
        rng = seeded_rng(42)
        xs = rng.uniform(0, scene.width - 1, 8)
        ys = rng.uniform(0, scene.height - 1, 8)
        fx, fy = flow_at_points(scene, 0.0, 1.0, xs, ys)
        g = scene.motion.generator()
        # forward-integrate du/dt = G[:2].[u,1] - u * (G[2].[u,1]) with RK4
        steps = 2000
        dt = 1.0 / steps
        px, py = xs.copy(), ys.copy()

        def vel(px, py):
            d0 = g[0, 0] * px + g[0, 1] * py + g[0, 2]
            d1 = g[1, 0] * px + g[1, 1] * py + g[1, 2]
            d2 = g[2, 0] * px + g[2, 1] * py + g[2, 2]
            return d0 - px * d2, d1 - py * d2

        for _ in range(steps):
            k1x, k1y = vel(px, py)
            k2x, k2y = vel(px + 0.5 * dt * k1x, py + 0.5 * dt * k1y)
            k3x, k3y = vel(px + 0.5 * dt * k2x, py + 0.5 * dt * k2y)
            k4x, k4y = vel(px + dt * k3x, py + dt * k3y)
            px = px + dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6
            py = py + dt * (k1y + 2 * k2y + 2 * k3y + k4y) / 6
        assert np.allclose(fx, px - xs, atol=1e-6)
        assert np.allclose(fy, py - ys, atol=1e-6)

    def test_homography_flow_round_trip(self):
        gen = (0.02, -0.01, 0.8, 0.015, 0.03, -0.5, 1e-4, -2e-4)
        scene = Scene(16, 16, 3, MotionSpec("homography", gen))
        fwd = flow_between(scene, 0.0, 1.0)
        ys, xs = np.mgrid[0:16, 0:16].astype(float)
        bx, by = flow_at_points(
            scene, 1.0, 0.0, xs + fwd[..., 0], ys + fwd[..., 1]
        )
        assert np.allclose(fwd[..., 0] + bx, 0.0, atol=1e-9)
        assert np.allclose(fwd[..., 1] + by, 0.0, atol=1e-9)

    def test_trajectory_composition(self):
        scene = _affine_scene()
        ys, xs = np.mgrid[0:16, 0:16].astype(float)
        fab = flow_between(scene, 0.0, 0.4)
        fbc_x, fbc_y = flow_at_points(
            scene, 0.4, 1.0, xs + fab[..., 0], ys + fab[..., 1]
        )
        fac = flow_between(scene, 0.0, 1.0)
        assert np.allclose(fac[..., 0], fab[..., 0] + fbc_x, atol=1e-5)
        assert np.allclose(fac[..., 1], fab[..., 1] + fbc_y, atol=1e-5)

    def test_velocity_field_matches_flow_derivative(self):
        scene = _affine_scene()
        eps = 1e-6
        ys, xs = np.mgrid[0 : scene.height, 0 : scene.width].astype(np.float64)
        vel = np.stack(scene_module._velocity_at_points(scene, 0.5, xs, ys), axis=-1)
        flow = flow_between(scene, 0.5, 0.5 + eps)
        assert np.allclose(vel, flow / eps, atol=1e-4)


class TestAdaptiveTimestamps:
    def test_constant_speed_ten_gives_eleven_stamps(self):
        scene = Scene(16, 16, 0, MotionSpec("translation", (10.0, 0.0)))
        times = adaptive_timestamps(scene, 0.0, 1.0)
        assert len(times) == 11
        assert times[0] == 0.0
        assert times[-1] == 1.0
        assert np.allclose(np.diff(times), 0.1)

    def test_zero_motion_gives_endpoints(self):
        scene = _translation_scene(0.0, 0.0)
        assert adaptive_timestamps(scene, 0.0, 1.0) == [0.0, 1.0]

    def test_strictly_increasing_and_bracketing(self):
        scene = _affine_scene()
        times = adaptive_timestamps(scene, 0.0, 1.0)
        assert times[0] == 0.0
        assert times[-1] == 1.0
        assert np.all(np.diff(times) > 0)

    def test_displacement_bound_holds_both_directions(self):
        scene = _affine_scene()
        times = adaptive_timestamps(scene, 0.0, 1.0)
        for ta, tb in zip(times, times[1:]):
            for a, b in ((ta, tb), (tb, ta)):
                flow = flow_between(scene, a, b)
                disp = np.hypot(flow[..., 0], flow[..., 1]).max()
                assert disp <= 1.0 + 1e-9

    def test_requires_forward_interval(self):
        scene = _translation_scene()
        with pytest.raises(ParameterError):
            adaptive_timestamps(scene, 0.5, 0.5)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(scene_module, "_MAX_STEPS", 50)
        scene = _translation_scene(1e6, 0.0)
        with pytest.raises(StepLimitError):
            adaptive_timestamps(scene, 0.0, 1.0)


def _dense_timestamps(scene, t_i, t_j):
    """adaptive_timestamps with both audits taken over every pixel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scene_module, "_peak_speed", dense_peak_speed)
        mp.setattr(scene_module, "_peak_displacement", dense_peak_displacement)
        return adaptive_timestamps(scene, t_i, t_j)


class TestAdaptiveAudit:
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["translation", "accelerated", "affine"]),
        width=st.integers(8, 300),
        height=st.integers(8, 300),
        velocity=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
        accel=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
        matrix=st.tuples(*[st.floats(-0.02, 0.02)] * 4),
        t_i=st.floats(0.0, 0.95),
        frac=st.floats(0.01, 1.0),
    )
    def test_property_matches_dense_audit(
        self, kind, width, height, velocity, accel, matrix, t_i, frac
    ):
        """Translation lists equal the dense audit's.  Affine lists may differ
        by rounding along a tied edge: same length, timestamps within
        1e-12 of the span, and no step beyond 1 + 1e-9 px by the dense audit."""
        if kind == "affine":
            a11, a12, a21, a22 = matrix
            motion = MotionSpec("affine", (a11, a12, velocity[0], a21, a22, velocity[1]))
        else:
            coeffs = velocity + accel if kind == "accelerated" else velocity
            motion = MotionSpec("translation", coeffs)
        scene = Scene(width, height, 0, motion)
        t_j = min(1.0, t_i + frac * (1.0 - t_i))
        times = adaptive_timestamps(scene, t_i, t_j)
        dense = _dense_timestamps(scene, t_i, t_j)
        if kind != "affine":
            assert times == dense
            return
        assert len(times) == len(dense)
        assert np.abs(np.subtract(times, dense)).max() <= 1e-12 * (t_j - t_i)
        for t_a, t_b in zip(times, times[1:]):
            assert dense_peak_displacement(scene, t_a, t_b) <= 1.0 + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.tuples(st.integers(8, 200), st.integers(8, 200)),
        coeffs=st.tuples(
            *[st.one_of(st.just(0.0), st.floats(-0.1, 0.1))] * 2,
            st.floats(-6.0, 6.0),
            *[st.one_of(st.just(0.0), st.floats(-0.1, 0.1))] * 2,
            st.floats(-6.0, 6.0),
        ),
        t_a=st.floats(0.0, 1.0),
        t_b=st.floats(0.0, 1.0),
    )
    def test_property_affine_corners_reach_dense_peak(self, size, coeffs, t_a, t_b):
        """An affine field's norm is convex in x, so a corner holds its peak.

        Each flow is a difference of positions, so its rounding scales with
        the coordinates as well as with the peak: the corner may fall short
        of the dense peak by 1e-12 of the larger of the two.
        """
        scene = Scene(*size, 0, MotionSpec("affine", coeffs))
        for corner, dense in (
            (scene_module._peak_speed(scene, t_a), dense_peak_speed(scene, t_a)),
            (
                scene_module._peak_displacement(scene, t_a, t_b),
                dense_peak_displacement(scene, t_a, t_b),
            ),
        ):
            assert corner >= dense - 1e-12 * max(dense, *size)

    @pytest.mark.parametrize(
        "motion, audited",
        [
            (MotionSpec("translation", (7.0, -3.0, 2.0, 1.0)), 4),
            (MotionSpec("affine", (0.0, 0.09, 2.0, 0.0, 0.0, 3.0)), 4),
            (
                MotionSpec("homography", (0.02, -0.03, 3.0, 0.03, 0.01, -2.0, 4e-4, -3e-4)),
                20 * 12,
            ),
        ],
        ids=["translation", "affine", "homography"],
    )
    def test_audited_pixel_count(self, monkeypatch, motion, audited):
        """Translation and affine audit their 4 corners; homography every pixel."""
        scene = Scene(20, 12, 0, motion)
        expected = _dense_timestamps(scene, 0.0, 1.0)
        sizes = []
        for name in ("flow_at_points", "_velocity_at_points"):
            real = getattr(scene_module, name)

            def spy(scene, *args, real=real):
                sizes.append(np.size(args[-1]))
                return real(scene, *args)

            monkeypatch.setattr(scene_module, name, spy)
        assert adaptive_timestamps(scene, 0.0, 1.0) == expected
        assert len(expected) > 2
        assert sizes and set(sizes) == {audited}


class TestHomographyDegeneracy:
    def test_vanishing_depth_raises(self):
        gen = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.5, -0.5)
        scene = Scene(16, 16, 0, MotionSpec("homography", gen))
        with pytest.raises(DataError):
            flow_between(scene, 0.0, 1.0)

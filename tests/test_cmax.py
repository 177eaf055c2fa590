import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmeshflow import (
    EventStream,
    MotionSpec,
    ParameterError,
    Scene,
    ShapeError,
    WarpedEvents,
    accumulate_iwe,
    adaptive_timestamps,
    contrast,
    flow_between,
    render_sequence,
    seeded_rng,
    select_best,
    shuffle_timestamps,
    simulate,
    two_sided_components,
    two_sided_score,
    warp_events,
)

from _oracles import scalar_accumulate_iwe


def _stream(x, y, t, p, width=8, height=8, span=(0, 1_000_000)):
    return EventStream(x, y, t, p, width, height, span[0], span[1])


def _scene_stream(threshold=0.2, size=32, velocity=(8.0, 3.0)):
    scene = Scene(size, size, 7, MotionSpec("translation", velocity))
    times = adaptive_timestamps(scene, 0.0, 1.0)
    frames = render_sequence(scene, times)
    stream = simulate(frames, threshold)
    flow = flow_between(scene, 0.0, 1.0)
    return scene, stream, flow


class TestWarpEvents:
    def test_flow_shape_checked(self):
        stream = _stream([0], [0], [0], [1])
        with pytest.raises(ShapeError):
            warp_events(stream, np.zeros((4, 4, 2)), 0, 0, 1_000_000)

    def test_zero_length_interval_rejected(self):
        stream = _stream([0], [0], [0], [1])
        with pytest.raises(ParameterError):
            warp_events(stream, np.zeros((8, 8, 2)), 0, 5, 5)

    def test_reference_at_event_time_is_identity(self):
        stream = _stream([3], [4], [250_000], [1])
        flow = np.full((8, 8, 2), 17.0)
        warped = warp_events(stream, flow, 250_000, 0, 1_000_000)
        assert warped.xw[0] == 3.0
        assert warped.yw[0] == 4.0

    def test_full_interval_moves_by_flow(self):
        stream = _stream([2], [5], [0], [1])
        flow = np.zeros((8, 8, 2))
        flow[5, 2] = (3.0, 0.0)
        warped = warp_events(stream, flow, 1_000_000, 0, 1_000_000)
        assert warped.xw[0] == pytest.approx(5.0)
        assert warped.yw[0] == pytest.approx(5.0)

    def test_zero_flow_keeps_positions(self):
        stream = _stream([1, 2, 3], [4, 5, 6], [0, 10, 20], [1, -1, 1])
        warped = warp_events(stream, np.zeros((8, 8, 2)), 999, 0, 1_000_000)
        assert np.array_equal(warped.xw, stream.x.astype(float))
        assert np.array_equal(warped.yw, stream.y.astype(float))

    def test_positions_may_leave_sensor(self):
        stream = _stream([7], [0], [0], [1])
        flow = np.full((8, 8, 2), 10.0)
        warped = warp_events(stream, flow, 1_000_000, 0, 1_000_000)
        assert warped.xw[0] > 7

    def test_flow_read_at_each_event_pixel(self):
        # 7 wide, 5 high: a transposed pixel index reads the wrong flow.
        rng = seeded_rng(4)
        t = np.sort(rng.integers(0, 1_000_000, size=300))
        x, y = rng.integers(0, 7, size=300), rng.integers(0, 5, size=300)
        stream = _stream(x, y, t, rng.choice([-1, 1], size=300), width=7, height=5)
        flow = rng.standard_normal((5, 7, 2))
        warped = warp_events(stream, flow, 400_000, 0, 1_000_000)
        factor = (400_000 - t.astype(np.float64)) / 1_000_000.0
        assert warped.xw.tobytes() == (x + factor * flow[y, x, 0]).tobytes()
        assert warped.yw.tobytes() == (y + factor * flow[y, x, 1]).tobytes()


class TestAccumulateIwe:
    def test_splat_mode_validated(self):
        warped = WarpedEvents(
            np.array([1.0]), np.array([1.0]), np.array([1]), 4, 4, 0.0
        )
        with pytest.raises(ParameterError):
            accumulate_iwe(warped, splat="cubic")

    def test_nearest_single_integer_event(self):
        warped = WarpedEvents(
            np.array([3.0]), np.array([2.0]), np.array([-1]), 6, 6, 0.0
        )
        img = accumulate_iwe(warped, splat="nearest")
        assert img[2, 3] == 1.0
        assert img.sum() == 1.0

    def test_bilinear_half_pixel_split(self):
        warped = WarpedEvents(
            np.array([0.5]), np.array([0.0]), np.array([1]), 4, 4, 0.0
        )
        img = accumulate_iwe(warped)
        assert img[0, 0] == pytest.approx(0.5)
        assert img[0, 1] == pytest.approx(0.5)
        assert img.sum() == pytest.approx(1.0)

    def test_empty_input_zero_image(self):
        warped = WarpedEvents(
            np.empty(0), np.empty(0), np.empty(0, dtype=np.int8), 4, 4, 0.0
        )
        assert not accumulate_iwe(warped).any()

    def test_off_sensor_mass_discarded(self):
        warped = WarpedEvents(
            np.array([-3.0, 1.0]), np.array([0.0, 1.0]), np.array([1, 1]), 4, 4, 0.0
        )
        img = accumulate_iwe(warped)
        assert img.sum() == pytest.approx(1.0)

    def test_mass_bounded_by_count_with_onsensor_equality(self):
        rng = seeded_rng(2)
        xw = rng.uniform(-1, 8, size=50)
        yw = rng.uniform(-1, 8, size=50)
        warped = WarpedEvents(xw, yw, np.ones(50, dtype=np.int8), 8, 8, 0.0)
        img = accumulate_iwe(warped)
        assert img.sum() <= 50 + 1e-9
        inside = WarpedEvents(
            np.clip(xw, 0, 7), np.clip(yw, 0, 7), warped.p, 8, 8, 0.0
        )
        assert accumulate_iwe(inside).sum() == pytest.approx(50.0)


@st.composite
def _warped_events(draw):
    """Events on, at the edge of and off a small non-square sensor.

    A third of the coordinates are whole numbers, so some corners get zero
    weight; the last row and column and positions just outside are drawn
    on purpose.
    """
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))

    def coord(size):
        return st.one_of(
            st.integers(-2, size + 1).map(float),
            st.sampled_from([size - 1.0, size - 1.5, size - 0.5, -0.5, -1e-9]),
            st.floats(-3.0, size + 2.0, allow_nan=False),
        )

    n = draw(st.integers(0, 40))
    xw = draw(st.lists(coord(width), min_size=n, max_size=n))
    yw = draw(st.lists(coord(height), min_size=n, max_size=n))
    p = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return WarpedEvents(
        np.array(xw, dtype=np.float64),
        np.array(yw, dtype=np.float64),
        np.array(p, dtype=np.int8),
        width,
        height,
        0.0,
    )


class TestAccumulateIweOracle:
    @pytest.mark.parametrize("splat", ["bilinear", "nearest"])
    @settings(max_examples=80, deadline=None)
    @given(warped=_warped_events())
    def test_matches_scalar_oracle_bytes(self, splat, warped):
        img = accumulate_iwe(warped, splat=splat)
        assert img.tobytes() == scalar_accumulate_iwe(warped, splat).tobytes()

    @pytest.mark.parametrize("splat", ["bilinear", "nearest"])
    def test_scene_stream_matches_scalar_oracle_bytes(self, splat):
        # 32x32 translation stream, warped to both ends: many events share pixels.
        _, stream, flow = _scene_stream()
        for t_ref in (stream.t_start, stream.t_end):
            warped = warp_events(stream, flow, t_ref, stream.t_start, stream.t_end)
            img = accumulate_iwe(warped, splat=splat)
            assert img.tobytes() == scalar_accumulate_iwe(warped, splat).tobytes()


class TestContrast:
    def test_requires_2d(self):
        with pytest.raises(ShapeError):
            contrast(np.zeros((2, 2, 2)))

    def test_uniform_image_zero(self):
        assert contrast(np.full((5, 5), 3.5)) == 0.0
        assert contrast(np.full((5, 5), 3.7)) == pytest.approx(0.0, abs=1e-24)

    def test_hand_computed_variance(self):
        assert contrast(np.array([[0.0, 0.0], [0.0, 4.0]])) == pytest.approx(3.0)

    def test_scaling_is_quadratic(self):
        rng = seeded_rng(9)
        img = rng.uniform(0, 4, size=(6, 6))
        assert contrast(3.0 * img) == pytest.approx(9.0 * contrast(img))

    def test_non_negative(self):
        rng = seeded_rng(10)
        assert contrast(rng.normal(size=(7, 7))) >= 0.0


class TestTwoSidedScore:
    def test_empty_stream_scores_zero(self):
        empty = np.empty(0, dtype=np.int64)
        stream = EventStream(empty, empty, empty, empty, 8, 8, 0, 100)
        assert two_sided_score(stream, np.zeros((8, 8, 2)), 0, 100) == 0.0

    def test_true_flow_beats_zero_flow(self):
        _, stream, flow = _scene_stream()
        zero = np.zeros_like(flow)
        t0, t1 = stream.t_start, stream.t_end
        assert two_sided_score(stream, flow, t0, t1) > two_sided_score(
            stream, zero, t0, t1
        )

    def test_symmetric_stream_zero_flow_sides_equal(self):
        # Mirror-symmetric timestamps with zero flow: both endpoints see the
        # same unwarped image.
        stream = _stream(
            [1, 2, 3], [1, 2, 3], [0, 500_000, 1_000_000], [1, 1, 1]
        )
        var_i, var_j = two_sided_components(
            stream, np.zeros((8, 8, 2)), 0, 1_000_000
        )
        assert var_i == pytest.approx(var_j)

    def test_components_sum_to_score(self):
        _, stream, flow = _scene_stream()
        t0, t1 = stream.t_start, stream.t_end
        var_i, var_j = two_sided_components(stream, flow, t0, t1)
        assert two_sided_score(stream, flow, t0, t1) == pytest.approx(
            var_i + var_j
        )


class TestSelectBest:
    def test_empty_candidates_rejected(self):
        with pytest.raises(ParameterError):
            select_best([], np.zeros((8, 8, 2)), 0, 100)

    def test_single_candidate(self):
        stream = _stream([1], [1], [50], [1], span=(0, 100))
        assert select_best([stream], np.zeros((8, 8, 2)), 0, 100) == 0

    def test_duplicate_candidates_tie_to_lowest_index(self):
        stream = _stream([1, 2], [1, 2], [10, 90], [1, 1], span=(0, 100))
        assert select_best([stream, stream], np.zeros((8, 8, 2)), 0, 100) == 0

    def test_coherent_stream_beats_shuffled_copy(self):
        _, stream, flow = _scene_stream()
        shuffled = shuffle_timestamps(stream, seeded_rng(0, 1))
        t0, t1 = stream.t_start, stream.t_end
        assert select_best([shuffled, stream], flow, t0, t1) == 1
        assert select_best([stream, shuffled], flow, t0, t1) == 0

    def test_appending_worse_candidate_keeps_choice(self):
        _, stream, flow = _scene_stream()
        shuffled = shuffle_timestamps(stream, seeded_rng(0, 2))
        t0, t1 = stream.t_start, stream.t_end
        base = [shuffled, stream]
        best = select_best(base, flow, t0, t1)
        worse = shuffle_timestamps(stream, seeded_rng(0, 3))
        assert select_best(base + [worse], flow, t0, t1) == best

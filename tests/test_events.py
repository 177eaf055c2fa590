import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmeshflow import (
    DataError,
    EventStream,
    FrameSequence,
    MotionSpec,
    ParameterError,
    Scene,
    ShapeError,
    adaptive_timestamps,
    flow_between,
    multi_density_sweep,
    render_sequence,
    seeded_rng,
    shuffle_timestamps,
    simulate,
    spatial_guided_subsample,
    temporal_guided_subsample,
)

from _oracles import scalar_simulate, spatial_keep_mask, temporal_keep_mask


def _single_pixel_frames(log_levels, times=None):
    """FrameSequence for one pixel following the given log-intensity path."""
    values = np.exp(np.asarray(log_levels, dtype=np.float64)).reshape(-1, 1, 1)
    if times is None:
        times = np.arange(len(log_levels), dtype=np.float64)
    return FrameSequence(values, np.asarray(times, dtype=np.float64))


def _stream_tuples(stream):
    return [
        (int(t), int(y), int(x), int(p))
        for x, y, t, p in zip(stream.x, stream.y, stream.t, stream.p)
    ]


class TestEventStreamValidation:
    def test_unsorted_times_rejected(self):
        with pytest.raises(DataError):
            EventStream([0, 1], [0, 0], [5, 3], [1, 1], 4, 4, 0, 10)

    def test_out_of_bounds_coordinates_rejected(self):
        with pytest.raises(DataError):
            EventStream([4], [0], [5], [1], 4, 4, 0, 10)

    def test_bad_polarity_rejected(self):
        with pytest.raises(DataError):
            EventStream([0], [0], [5], [2], 4, 4, 0, 10)

    def test_times_outside_span_rejected(self):
        with pytest.raises(DataError):
            EventStream([0], [0], [11], [1], 4, 4, 0, 10)

    def test_select_preserves_span_and_order(self):
        stream = EventStream([0, 1, 2], [0, 0, 0], [1, 2, 3], [1, -1, 1], 4, 4, 0, 10)
        sub = stream.select(np.array([True, False, True]))
        assert len(sub) == 2
        assert sub.t_start == 0 and sub.t_end == 10
        assert list(sub.t) == [1, 3]


class TestFrameSequenceValidation:
    def test_non_increasing_times_rejected(self):
        with pytest.raises(DataError):
            FrameSequence(np.ones((2, 2, 2)), [0.0, 0.0])

    def test_non_positive_intensity_rejected(self):
        values = np.ones((2, 2, 2))
        values[1, 0, 0] = 0.0
        with pytest.raises(DataError):
            FrameSequence(values, [0.0, 1.0])

    def test_frame_shape_enforced(self):
        with pytest.raises(ShapeError):
            FrameSequence(np.ones((2, 2)), [0.0, 1.0])


class TestSimulatePinnedCases:
    def test_threshold_must_be_positive(self):
        frames = _single_pixel_frames([0.0, 1.0])
        with pytest.raises(ParameterError):
            simulate(frames, 0.0)

    def test_constant_frames_emit_nothing(self):
        frames = FrameSequence(np.full((4, 3, 3), 0.7), [0.0, 0.1, 0.2, 0.3])
        stream = simulate(frames, 0.2)
        assert len(stream) == 0
        assert stream.t_start == 0 and stream.t_end == 300_000

    def test_step_of_two_and_a_half_thresholds(self):
        threshold = 0.2
        frames = _single_pixel_frames([0.0, 2.5 * threshold], times=[0.0, 1.0])
        stream = simulate(frames, threshold)
        assert len(stream) == 2
        assert list(stream.p) == [1, 1]
        assert list(stream.t) == [400_000, 800_000]

    def test_step_of_minus_one_threshold(self):
        threshold = 0.3
        frames = _single_pixel_frames([0.5, 0.5 - threshold], times=[0.0, 1.0])
        stream = simulate(frames, threshold)
        assert len(stream) == 1
        assert int(stream.p[0]) == -1
        assert int(stream.t[0]) == 1_000_000

    def test_residual_carries_across_frames(self):
        # Two +0.6C steps: no event in the first interval, one in the second.
        threshold = 0.5
        frames = _single_pixel_frames([0.0, 0.3, 0.6], times=[0.0, 1.0, 2.0])
        stream = simulate(frames, threshold)
        assert len(stream) == 1
        assert int(stream.p[0]) == 1
        # Crossing at log level 0.5, reached at 1 + (0.5-0.3)/0.3 of a second.
        expected = 1.0 + (0.5 - 0.3) / (0.6 - 0.3)
        assert int(stream.t[0]) == int(np.rint(expected * 1e6))

    def test_monotonic_brightening_is_all_positive(self):
        rng = seeded_rng(8)
        ramp = np.cumsum(rng.uniform(0.05, 0.3, size=(6, 4, 4)), axis=0)
        frames = FrameSequence(np.exp(ramp), np.arange(6.0))
        stream = simulate(frames, 0.17)
        assert len(stream) > 0
        assert np.all(stream.p == 1)

    def test_ties_ordered_by_y_x_p(self):
        # Two pixels with identical traces fire simultaneously.
        values = np.ones((2, 1, 2))
        values[1] = np.exp(0.4)
        frames = FrameSequence(values, [0.0, 1.0])
        stream = simulate(frames, 0.4)
        assert len(stream) == 2
        assert list(stream.t) == [1_000_000, 1_000_000]
        assert list(stream.x) == [0, 1]


class TestSimulateOracleEquivalence:
    def _compare(self, values, times, threshold):
        frames = FrameSequence(values, times)
        stream = simulate(frames, threshold)
        expected = scalar_simulate(values, times, threshold)
        assert _stream_tuples(stream) == expected

    def test_random_sequences_match_bit_exactly(self):
        rng = seeded_rng(123)
        for _ in range(30):
            values = np.exp(rng.uniform(-1.0, 1.0, size=(8, 4, 4)))
            times = np.cumsum(rng.uniform(0.01, 0.2, size=8))
            self._compare(values, times, float(rng.uniform(0.05, 0.6)))

    def test_rendered_scene_matches_oracle(self):
        scene = Scene(8, 8, 21, MotionSpec("translation", (5.0, -3.0)))
        times = adaptive_timestamps(scene, 0.0, 1.0)
        frames = render_sequence(scene, times)
        stream = simulate(frames, 0.25)
        expected = scalar_simulate(frames.values, frames.times, 0.25)
        assert len(stream) > 0
        assert _stream_tuples(stream) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        frames=st.integers(2, 6),
        threshold=st.floats(0.05, 0.8),
    )
    def test_property_random_traces(self, seed, frames, threshold):
        rng = seeded_rng(seed)
        values = np.exp(rng.uniform(-1.2, 1.2, size=(frames, 3, 3)))
        times = np.cumsum(rng.uniform(0.05, 0.3, size=frames))
        self._compare(values, times, threshold)

    def test_bit_identical_across_runs(self):
        rng = seeded_rng(5)
        values = np.exp(rng.uniform(-1, 1, size=(6, 5, 5)))
        frames = FrameSequence(values, np.arange(6.0))
        a = simulate(frames, 0.2)
        b = simulate(frames, 0.2)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.p, b.p)


class TestMultiDensitySweep:
    def _frames(self):
        scene = Scene(16, 16, 4, MotionSpec("translation", (6.0, 2.0)))
        return render_sequence(scene, adaptive_timestamps(scene, 0.0, 1.0))

    def test_empty_threshold_list_rejected(self):
        with pytest.raises(ParameterError):
            multi_density_sweep(self._frames(), [])

    def test_singleton_matches_simulate(self):
        frames = self._frames()
        sweep = multi_density_sweep(frames, [0.3])
        direct = simulate(frames, 0.3)
        assert len(sweep) == 1
        assert np.array_equal(sweep[0].t, direct.t)
        assert np.array_equal(sweep[0].p, direct.p)

    def test_huge_threshold_gives_empty_stream(self):
        frames = self._frames()
        logs = np.log(frames.values)
        span = float(logs.max() - logs.min())
        (stream,) = multi_density_sweep(frames, [span + 1.0])
        assert len(stream) == 0

    def test_event_count_non_increasing_in_threshold(self):
        frames = self._frames()
        streams = multi_density_sweep(frames, [0.1, 0.2, 0.4, 0.8])
        counts = [len(s) for s in streams]
        assert counts == sorted(counts, reverse=True)


class TestShuffleTimestamps:
    def test_preserves_multisets_and_sorting(self):
        scene = Scene(16, 16, 4, MotionSpec("translation", (6.0, 2.0)))
        frames = render_sequence(scene, adaptive_timestamps(scene, 0.0, 1.0))
        stream = simulate(frames, 0.2)
        shuffled = shuffle_timestamps(stream, seeded_rng(0, 99))
        assert len(shuffled) == len(stream)
        assert sorted(shuffled.t) == sorted(stream.t)
        assert np.all(np.diff(shuffled.t) >= 0)
        same = np.array_equal(shuffled.x, stream.x) and np.array_equal(
            shuffled.t, stream.t
        )
        assert not same


def _lattice_stream():
    # 8x8 sensor, one event on every pixel, all at distinct times.
    gy, gx = np.mgrid[0:8, 0:8]
    x = gx.ravel()
    y = gy.ravel()
    t = np.arange(64, dtype=np.int64) * 1000
    p = np.ones(64, dtype=np.int8)
    return EventStream(x, y, t, p, 8, 8, 0, 63_000)


class TestSpatialSubsample:
    def test_keep_ratio_one_returns_input(self):
        stream = _lattice_stream()
        flow = np.zeros((8, 8, 2))
        out = spatial_guided_subsample(stream, flow, 1.0)
        assert len(out) == len(stream)
        assert np.array_equal(out.x, stream.x)
        assert np.array_equal(out.t, stream.t)

    def test_zero_flow_keeps_exactly_seed_pixels(self):
        stream = _lattice_stream()
        flow = np.zeros((8, 8, 2))
        out = spatial_guided_subsample(stream, flow, 0.25, tolerance=0.5)
        # spacing 2: seeds at even (x, y); only those events lie within 0.5 px
        assert len(out) == 16
        assert np.all(out.x % 2 == 0)
        assert np.all(out.y % 2 == 0)

    def test_result_is_an_ordered_subset(self):
        stream = _lattice_stream()
        flow = np.full((8, 8, 2), 0.7)
        out = spatial_guided_subsample(stream, flow, 0.2, tolerance=1.0)
        assert len(out) < len(stream)
        kept = set(zip(out.x, out.y, out.t))
        orig = list(zip(stream.x, stream.y, stream.t))
        assert kept <= set(orig)
        assert [e for e in orig if e in kept] == list(zip(out.x, out.y, out.t))

    def test_moving_seeds_follow_flow(self):
        # One seed at (0, 0) moving right by 4 px; an event halfway through
        # time at (2, 0) lies on the trajectory, one at (2, 2) does not.
        stream = EventStream(
            [2, 2], [0, 2], [500, 500], [1, 1], 8, 8, 0, 1000
        )
        flow = np.zeros((8, 8, 2))
        flow[..., 0] = 4.0
        out = spatial_guided_subsample(stream, flow, 1.0 / 64.0, tolerance=0.25)
        assert len(out) == 1
        assert int(out.x[0]) == 2 and int(out.y[0]) == 0

    def test_parameter_validation(self):
        stream = _lattice_stream()
        flow = np.zeros((8, 8, 2))
        with pytest.raises(ParameterError):
            spatial_guided_subsample(stream, flow, 0.0)
        with pytest.raises(ParameterError):
            spatial_guided_subsample(stream, flow, 0.5, tolerance=-1.0)
        with pytest.raises(ShapeError):
            spatial_guided_subsample(stream, np.zeros((4, 4, 2)), 0.5)


class TestTemporalSubsample:
    def test_keep_all_with_infinite_tolerance(self):
        stream = _lattice_stream()
        flow = np.zeros((8, 8, 2))
        out = temporal_guided_subsample(stream, flow, 1.0, tolerance=np.inf)
        assert len(out) == len(stream)
        assert np.array_equal(out.t, stream.t)

    def test_half_ratio_keeps_five_of_ten_timestamps(self):
        x = np.zeros(10, dtype=np.int64)
        y = np.zeros(10, dtype=np.int64)
        t = np.arange(10, dtype=np.int64) * 100
        p = np.ones(10, dtype=np.int8)
        stream = EventStream(x, y, t, p, 8, 8, 0, 900)
        flow = np.zeros((8, 8, 2))
        out = temporal_guided_subsample(stream, flow, 0.5, tolerance=np.inf)
        assert len(np.unique(out.t)) == 5

    def test_trajectory_gate_drops_offpath_events(self):
        # All pixels are seeds; zero flow and tolerance 0 keep events only
        # exactly on integer seed positions, which is all of them; a large
        # uniform flow shifts every trajectory away from late events.
        stream = _lattice_stream()
        zero = np.zeros((8, 8, 2))
        all_kept = temporal_guided_subsample(stream, zero, 1.0, tolerance=0.0)
        assert len(all_kept) == len(stream)
        push = np.full((8, 8, 2), 50.0)
        out = temporal_guided_subsample(stream, push, 1.0, tolerance=0.25)
        assert len(out) < len(stream)


_SUBSAMPLERS = pytest.mark.parametrize(
    "subsample, oracle",
    [
        (spatial_guided_subsample, spatial_keep_mask),
        (temporal_guided_subsample, temporal_keep_mask),
    ],
    ids=["spatial", "temporal"],
)


class TestGuidedSubsample:
    @_SUBSAMPLERS
    def test_empty_stream_passes_through(self, subsample, oracle):
        empty = np.empty(0, dtype=np.int64)
        stream = EventStream(empty, empty, empty, empty, 8, 8, 0, 100)
        flow = np.zeros((8, 8, 2))
        out = subsample(stream, flow, 0.2)
        assert len(out) == 0

    @_SUBSAMPLERS
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("tolerance", [0.5, np.inf])
    def test_non_finite_flow_rejected(self, subsample, oracle, bad, tolerance):
        stream = _lattice_stream()
        flow = np.zeros((8, 8, 2))
        flow[3, 5, 1] = bad
        with pytest.raises(DataError, match="finite"):
            subsample(stream, flow, 0.2, tolerance=tolerance)

    @_SUBSAMPLERS
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        width=st.integers(1, 7),
        height=st.integers(1, 7),
        count=st.integers(0, 40),
        keep_ratio=st.floats(0.02, 1.0),
        tolerance=st.sampled_from([0.0, 0.5, 1.0, 2.0**0.5, 2.0, np.inf])
        | st.floats(0.0, 4.0),
        integer_flow=st.booleans(),
    )
    def test_keep_mask_matches_brute_force(
        self, subsample, oracle, seed, width, height, count, keep_ratio, tolerance,
        integer_flow,
    ):
        # A span of 16 us makes every normalized time a dyadic fraction, so
        # integer flows put many distances exactly on the tolerance, where
        # <= must hold as in the definition.
        rng = seeded_rng(seed)
        span = int(rng.choice([16, 21]))
        t = np.sort(rng.integers(0, span + 1, size=count))
        stream = EventStream(
            rng.integers(0, width, size=count),
            rng.integers(0, height, size=count),
            t,
            rng.choice([-1, 1], size=count),
            width,
            height,
            0,
            span,
        )
        flow = rng.normal(0.0, 2.0, size=(height, width, 2))
        if integer_flow:
            flow = np.rint(flow)
        want = stream.select(oracle(stream, flow, keep_ratio, tolerance))
        got = subsample(stream, flow, keep_ratio, tolerance)
        for field in ("x", "y", "t", "p"):
            assert np.array_equal(getattr(got, field), getattr(want, field))

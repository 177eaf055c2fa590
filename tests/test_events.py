import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evmeshflow import events as events_module
from evmeshflow import (
    DataError,
    EventStream,
    MotionSpec,
    ParameterError,
    Scene,
    ShapeError,
    StepLimitError,
    adaptive_timestamps,
    flow_between,
    multi_density_sweep,
    render_frame,
    render_sequence,
    seeded_rng,
    shuffle_timestamps,
    simulate,
    spatial_guided_subsample,
    temporal_guided_subsample,
)

from _oracles import scalar_simulate, spatial_keep_mask, temporal_keep_mask


def _single_pixel_frames(log_levels, times=None):
    """(t, frame) pairs for one pixel following the given log-intensity path."""
    values = np.exp(np.asarray(log_levels, dtype=np.float64)).reshape(-1, 1, 1)
    if times is None:
        times = np.arange(len(log_levels), dtype=np.float64)
    return list(zip(np.asarray(times, dtype=np.float64), values))


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


class TestSimulatePinnedCases:
    def test_threshold_must_be_positive(self):
        frames = _single_pixel_frames([0.0, 1.0])
        with pytest.raises(ParameterError):
            simulate(frames, 0.0)

    def test_threshold_below_float_resolution_raises(self):
        # fl(ref + 1e-17) == ref once |ref| >= 0.125: such a pixel fires
        # without moving its reference, so the loop could never end.
        scene = Scene(8, 8, 0, MotionSpec("translation", (0.5, 0.0)))
        frames = render_sequence(scene, adaptive_timestamps(scene, 0.0, 1.0))
        with pytest.raises(ParameterError, match="float64 resolution"):
            simulate(frames, 1e-17)

    def test_event_budget_exceeded_raises(self):
        # About 5e9 events per pixel: refused before the first round.
        scene = Scene(8, 8, 0, MotionSpec("translation", (0.5, 0.0)))
        frames = render_sequence(scene, adaptive_timestamps(scene, 0.0, 1.0))
        with pytest.raises(StepLimitError, match="events"):
            simulate(frames, 1e-9)

    def test_constant_frames_emit_nothing(self):
        frames = zip([0.0, 0.1, 0.2, 0.3], np.full((4, 3, 3), 0.7))
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
        frames = zip(np.arange(6.0), np.exp(ramp))
        stream = simulate(frames, 0.17)
        assert len(stream) > 0
        assert np.all(stream.p == 1)

    def test_ties_ordered_by_y_x_p(self):
        # Two pixels with identical traces fire simultaneously.
        values = np.ones((2, 1, 2))
        values[1] = np.exp(0.4)
        frames = zip([0.0, 1.0], values)
        stream = simulate(frames, 0.4)
        assert len(stream) == 2
        assert list(stream.t) == [1_000_000, 1_000_000]
        assert list(stream.x) == [0, 1]


class TestSimulateOracleEquivalence:
    def _compare(self, values, times, threshold):
        stream = simulate(zip(times, values), threshold)
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
        stream = simulate(render_sequence(scene, times), 0.25)
        values = np.stack([render_frame(scene, t) for t in times])
        expected = scalar_simulate(values, times, 0.25)
        assert len(stream) > 0
        assert _stream_tuples(stream) == expected

    @settings(max_examples=60, deadline=None)
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

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        height=st.integers(10, 20),
        width=st.integers(10, 20),
        frames=st.integers(3, 6),
        threshold=st.floats(0.01, 0.3),
    )
    def test_property_active_set_shrinks(self, seed, height, width, frames, threshold):
        """Sensors where pixels stop firing in different rounds of an interval.

        Each moving pixel reverses direction at every frame and steps by
        0-6 thresholds, so a pixel quiet in one interval fires in the next
        and long runs of same-sign events occur; a random subset stays
        static throughout.
        """
        rng = seeded_rng(seed)
        size = (frames - 1, height, width)
        flips = np.where(np.arange(frames - 1) % 2 == 0, 1.0, -1.0)[:, None, None]
        heading = rng.choice([-1.0, 1.0], size=(height, width))
        steps = rng.uniform(0.0, 6.0, size=size) * threshold * flips * heading
        steps[:, rng.random((height, width)) < 0.3] = 0.0
        logs = rng.uniform(-1.0, 1.0, size=(height, width)) + np.concatenate(
            [np.zeros((1, height, width)), np.cumsum(steps, axis=0)]
        )
        times = np.cumsum(rng.uniform(0.05, 0.3, size=frames))
        self._compare(np.exp(logs), times, threshold)

    def test_bit_identical_across_runs(self):
        rng = seeded_rng(5)
        values = np.exp(rng.uniform(-1, 1, size=(6, 5, 5)))
        frames = list(zip(np.arange(6.0), values))
        a = simulate(frames, 0.2)
        b = simulate(frames, 0.2)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.p, b.p)


def _lexsorted(x, y, t, p):
    """(x, y, t, p) reordered by np.lexsort on (t, y, x, p)."""
    order = np.lexsort((p, x, y, t))
    return x[order], y[order], t[order], p[order]


def _stream_bytes(stream):
    return [a.tobytes() for a in (stream.x, stream.y, stream.t, stream.p)]


class TestEventOrder:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        width=st.integers(1, 5),
        height=st.integers(1, 5),
        n=st.integers(0, 400),
        span=st.integers(0, 6),
    )
    def test_shuffle_matches_lexsort_reference(self, seed, width, height, n, span):
        # Few pixels and stamps: most (t, y, x, p) tuples repeat.
        rng = seeded_rng(seed)
        t = np.sort(rng.integers(100, 101 + span, size=n))
        x, y = rng.integers(0, width, size=n), rng.integers(0, height, size=n)
        stream = EventStream(
            x, y, t, rng.choice([-1, 1], size=n), width, height, 100, 100 + span
        )
        shuffled = shuffle_timestamps(stream, seeded_rng(seed, 1))
        t_ref = seeded_rng(seed, 1).permutation(stream.t)
        x_ref, y_ref, t_ref, p_ref = _lexsorted(stream.x, stream.y, t_ref, stream.p)
        assert _stream_bytes(shuffled) == [
            a.tobytes() for a in (x_ref, y_ref, t_ref, p_ref)
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        width=st.integers(1, 4),
        height=st.integers(1, 4),
        frames=st.integers(2, 5),
        threshold=st.floats(0.05, 0.5),
    )
    def test_simulate_matches_lexsort_reference(self, seed, width, height, frames, threshold):
        """Frames 1 us apart with steps of several thresholds.

        Crossings of one interval round to one or two microsecond stamps, so
        a pixel emits equal (t, y, x, p) tuples; two grey levels make whole
        rows of pixels fire together.
        """
        rng = seeded_rng(seed)
        levels = rng.choice([-1.0, 1.0], size=(frames, 2)) * rng.uniform(
            0.0, 4.0, size=(frames, 2)
        ) * threshold
        values = np.exp(levels[:, rng.integers(0, 2, size=(height, width))])
        times = 2.0 + np.arange(frames) * 1e-6
        stream = simulate(zip(times, values), threshold)
        perm = rng.permutation(len(stream))
        reference = _lexsorted(stream.x[perm], stream.y[perm], stream.t[perm], stream.p[perm])
        assert _stream_bytes(stream) == [a.tobytes() for a in reference]
        assert _stream_tuples(stream) == scalar_simulate(values, times, threshold)

    def test_repeated_tuples_survive_the_sort(self):
        # 3.5 thresholds within 1 us: crossings at 0.29, 0.57 and 0.86 us.
        values = np.exp(np.array([0.0, 3.5 * 0.2]).reshape(2, 1, 1) * np.ones((1, 2, 3)))
        stream = simulate(zip([0.0, 1e-6], values), 0.2)
        assert _stream_tuples(stream) == [
            (t, y, x, 1) for t in (0, 1) for y in range(2) for x in range(3) for _ in range(1 + t)
        ]


class TestSortKeyGuard:
    def test_simulate_span_overflowing_the_key_raises(self):
        # (1e17 + 1) us * 2 * 64 pixels > 2**63 - 1.
        values = np.ones((2, 8, 8))
        values[1] = np.exp(0.5)
        with pytest.raises(ParameterError):
            simulate(zip([0.0, 1e11], values), 0.2)

    def test_shuffle_largest_span_that_fits(self):
        # On 8x8 the key holds spans up to 2**56 - 2 us; one more overflows.
        limit = 2**56 - 2
        stream = EventStream([7, 0], [7, 0], [0, limit], [1, -1], 8, 8, 0, limit)
        shuffled = shuffle_timestamps(stream, seeded_rng(0))
        t_ref = seeded_rng(0).permutation(stream.t)
        reference = _lexsorted(stream.x, stream.y, t_ref, stream.p)
        assert _stream_bytes(shuffled) == [a.tobytes() for a in reference]
        too_long = EventStream([7, 0], [7, 0], [0, limit], [1, -1], 8, 8, 0, limit + 1)
        with pytest.raises(ParameterError):
            shuffle_timestamps(too_long, seeded_rng(0))


class TestMultiDensitySweep:
    def _frames(self):
        scene = Scene(16, 16, 4, MotionSpec("translation", (6.0, 2.0)))
        return list(render_sequence(scene, adaptive_timestamps(scene, 0.0, 1.0)))

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
        logs = np.log([frame for _, frame in frames])
        span = float(logs.max() - logs.min())
        (stream,) = multi_density_sweep(frames, [span + 1.0])
        assert len(stream) == 0

    def test_event_count_non_increasing_in_threshold(self):
        frames = self._frames()
        streams = multi_density_sweep(frames, [0.1, 0.2, 0.4, 0.8])
        counts = [len(s) for s in streams]
        assert counts == sorted(counts, reverse=True)


class TestStreamedFrames:
    """`multi_density_sweep` reads any iterable of (t, frame) pairs."""

    def _frames(self):
        scene = Scene(12, 10, 6, MotionSpec("translation", (5.0, -2.0)))
        return list(render_sequence(scene, adaptive_timestamps(scene, 0.0, 1.0)))

    def test_generator_matches_list(self):
        frames = self._frames()
        thresholds = [0.05, 0.2, 0.6]
        streamed = multi_density_sweep(((t, f.copy()) for t, f in frames), thresholds)
        listed = multi_density_sweep(frames, thresholds)
        assert len(listed[0]) > 0
        for a, b in zip(streamed, listed):
            assert _stream_bytes(a) == _stream_bytes(b)
            assert (a.width, a.height, a.t_start, a.t_end) == (
                b.width, b.height, b.t_start, b.t_end
            )

    def test_non_positive_frame_rejected(self):
        def frames():
            yield 0.0, np.ones((3, 4))
            yield 1.0, np.full((3, 4), 1.5)
            bad = np.ones((3, 4))
            bad[2, 1] = 0.0
            yield 2.0, bad

        with pytest.raises(DataError, match="positive"):
            multi_density_sweep(frames(), [0.1])

    @pytest.mark.parametrize("first", [True, False])
    def test_infinite_frame_rejected(self, first):
        frames = [(0.0, np.ones((2, 2))), (1.0, np.full((2, 2), 2.0))]
        frames[0 if first else 1][1][1, 0] = np.inf
        with pytest.raises(DataError, match="finite"):
            multi_density_sweep(iter(frames), [0.1])

    def test_nan_frame_rejected(self):
        frames = ((t, np.full((2, 2), np.nan if t else 1.0)) for t in (0.0, 1.0))
        with pytest.raises(DataError):
            multi_density_sweep(frames, [0.1])

    @pytest.mark.parametrize(
        "times",
        [(np.nan,), (0.0, np.inf), (-np.inf, 0.0), (0.0, 1e14), (-1e14, 0.0)],
        ids=["nan", "inf-last", "inf-first", "1e14-last", "1e14-first"],
    )
    def test_time_without_int64_microseconds_rejected(self, times):
        frames = ((t, np.full((3, 4), 1.0 + k)) for k, t in enumerate(times))
        with pytest.raises(DataError, match="microsecond"):
            multi_density_sweep(frames, [0.1])

    @pytest.mark.parametrize("times", [(0.0, 1.0, 1.0), (0.0, 1.0, 0.5)])
    def test_time_not_strictly_increasing_rejected(self, times):
        frames = ((t, np.full((3, 4), 1.0 + t)) for t in times)
        with pytest.raises(DataError, match="increasing"):
            multi_density_sweep(frames, [0.1])

    def test_frame_shape_change_rejected(self):
        frames = ((t, np.ones(shape)) for t, shape in ((0.0, (3, 4)), (1.0, (4, 3))))
        with pytest.raises(ShapeError):
            multi_density_sweep(frames, [0.1])

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4), (0, 3)])
    def test_frame_must_be_non_empty_2d(self, shape):
        with pytest.raises(ShapeError):
            multi_density_sweep(iter([(0.0, np.ones(shape))]), [0.1])

    def test_empty_iterable_rejected(self):
        with pytest.raises(ShapeError):
            multi_density_sweep(iter([]), [0.1])
        with pytest.raises(ShapeError):
            simulate((pair for pair in ()), 0.1)

    def test_single_frame_gives_empty_stream(self):
        (stream,) = multi_density_sweep(iter([(0.25, np.full((2, 3), 2.0))]), [0.1])
        assert len(stream) == 0
        assert (stream.width, stream.height) == (3, 2)
        assert stream.t_start == stream.t_end == 250_000

    def test_resolution_check_reads_frames_as_they_arrive(self):
        # Up to frame 1, max|log| is 0.02 with a spacing of 3.5e-18, below
        # 1e-17; the budget of interval 0 then fails before frame 2 (log 1.0,
        # spacing 2.2e-16) is read.
        frames = ((t, np.full((2, 2), np.exp(v))) for t, v in enumerate([0.01, 0.02, 1.0]))
        with pytest.raises(StepLimitError):
            multi_density_sweep(frames, [1e-17])
        frames = ((t, np.full((2, 2), np.exp(v))) for t, v in enumerate([0.01, 1.0]))
        with pytest.raises(ParameterError, match="resolution"):
            multi_density_sweep(frames, [1e-17])


def _scene_frames(kind, coefficients, width, height, seed):
    """A moving scene, its adaptive times on [0, 1] and its frames there, stacked."""
    scene = Scene(width, height, seed, MotionSpec(kind, coefficients))
    times = adaptive_timestamps(scene, 0.0, 1.0)
    return scene, times, np.stack([render_frame(scene, t) for t in times])


class TestSweepMatchesOracle:
    """Every stream of a sweep equals the scalar oracle for its threshold."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        scene=st.sampled_from([
            ("translation", (6.0, -3.0, 9.0, 4.0)),
            ("translation", (-2.0, 5.0, -7.0, -6.0)),
            ("affine", (0.035, -0.07, 4.5, 0.07, 0.025, -3.5)),
            ("affine", (-0.1, 0.04, -2.0, 0.02, 0.08, 3.0)),
            ("homography", (0.03, -0.05, 2.5, 0.04, 0.02, -1.5, 0.004, -0.003)),
            ("homography", (-0.02, 0.06, -1.0, 0.01, -0.04, 2.0, -0.005, 0.002)),
        ]),
        width=st.integers(8, 14),
        height=st.integers(8, 14),
        thresholds=st.lists(st.floats(0.02, 0.6), min_size=1, max_size=3),
    )
    def test_property_moving_scenes(self, seed, scene, width, height, thresholds):
        scene, times, values = _scene_frames(*scene, width, height, seed % 1000)
        streams = multi_density_sweep(render_sequence(scene, times), thresholds)
        for c, stream in zip(thresholds, streams):
            assert _stream_tuples(stream) == scalar_simulate(values, times, c)

    @pytest.mark.parametrize("kind, coefficients", [
        ("translation", (6.0, -3.0, 9.0, 4.0)),
        ("affine", (0.035, -0.07, 4.5, 0.07, 0.025, -3.5)),
        ("homography", (0.03, -0.05, 2.5, 0.04, 0.02, -1.5, 0.004, -0.003)),
    ])
    def test_pinned_moving_scenes(self, kind, coefficients):
        _, times, values = _scene_frames(kind, coefficients, 16, 12, 5)
        thresholds = [0.03, 0.15, 0.5]
        streams = multi_density_sweep(zip(times, values), thresholds)
        assert len(streams[0]) > len(streams[-1]) > 0
        for c, stream in zip(thresholds, streams):
            assert _stream_tuples(stream) == scalar_simulate(values, times, c)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        frames=st.integers(2, 5),
        ratios=st.lists(st.floats(1.0001, 6.0), min_size=1, max_size=3),
    )
    def test_property_thresholds_near_resolution(self, seed, frames, ratios):
        """Thresholds a few float64 spacings wide, on steps of a few spacings.

        Each rounding of ref + threshold then moves a crossing by a large
        share of a step, which is where the candidate filter's slack and
        the signed rounds must agree with the plain loop.
        """
        rng = seeded_rng(seed)
        base = rng.choice([-1.0, -0.75, 0.5, 1.0], size=(3, 4))
        steps = rng.integers(-12, 13, size=(frames, 3, 4)) * np.spacing(1.0)
        values = np.exp(base + np.cumsum(steps, axis=0))
        times = np.cumsum(rng.uniform(0.05, 0.3, size=frames))
        logs = np.log(values)
        resolution = np.spacing(max(logs.max(), -logs.min()))
        thresholds = [r * resolution for r in ratios]
        streams = multi_density_sweep(zip(times, values), thresholds)
        for c, stream in zip(thresholds, streams):
            assert _stream_tuples(stream) == scalar_simulate(values, times, c)

    def test_constant_frames_give_empty_streams(self):
        times = [0.5, 0.75, 1.0]
        frames = ((t, np.full((4, 5), 0.3)) for t in times)
        streams = multi_density_sweep(frames, [0.01, 0.2])
        for stream in streams:
            assert len(stream) == 0
            assert (stream.t_start, stream.t_end) == (500_000, 1_000_000)
            assert (stream.width, stream.height) == (5, 4)

    def test_return_to_start_frames(self):
        # Frames A, B, B, B, A: references come back to where they started,
        # landing exactly on the last frame's log level.
        scene = Scene(32, 32, 3, MotionSpec("translation", (0.9, -0.4)))
        a, b = render_frame(scene, 0.0), render_frame(scene, 1.0)
        values, times = np.stack([a, b, b, b, a]), np.arange(5.0)
        (stream,) = multi_density_sweep(zip(times, values), [0.05])
        assert len(stream) == 5222
        assert _stream_tuples(stream) == scalar_simulate(values, times, 0.05)


class TestRenderSequence:
    def test_renders_each_frame_when_it_is_read(self, monkeypatch):
        rendered = []
        real = events_module.render_frame

        def counting(scene, t):
            rendered.append(t)
            return real(scene, t)

        monkeypatch.setattr(events_module, "render_frame", counting)
        scene = Scene(8, 8, 2, MotionSpec("translation", (3.0, 1.0)))
        times = [0.0, 0.25, 1.0]
        frames = render_sequence(scene, times)
        assert rendered == []
        for k, t in enumerate(times):
            t_read, frame = next(frames)
            assert rendered == times[: k + 1]
            assert t_read == t and np.array_equal(frame, real(scene, t))
        assert next(frames, None) is None


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

    @_SUBSAMPLERS
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        width=st.integers(8, 24),
        height=st.integers(8, 24),
        count=st.integers(1, 40),
        keep_ratio=st.floats(0.02, 0.4),
        tolerance=st.sampled_from([0.0, 0.5, 1.0, 2.0**0.5, 2.0]) | st.floats(0.0, 4.0),
        offset=st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)),
        spread=st.sampled_from([0.5, 2.0, 6.0]),
        integer_flow=st.booleans(),
    )
    def test_keep_mask_matches_brute_force_where_the_query_prunes(
        self, subsample, oracle, seed, width, height, count, keep_ratio, tolerance,
        offset, spread, integer_flow,
    ):
        # Sensors of 8-24 px with a constant flow offset of up to 30 px and
        # spatial variation on top: the seed flows' midrange is far from 0 and
        # their reach around it is positive, so the index box around each
        # event leaves most seeds out and a wrong radius or centre drops
        # events the oracle keeps.  Half the events sit on a pixel's path
        # (rounded to the sensor grid), so many are kept; keep_ratio <= 0.4
        # gives spatial a lattice spacing above 1.
        rng = seeded_rng(seed)
        span = int(rng.choice([16, 21]))
        flow = rng.normal(0.0, spread, size=(height, width, 2)) + offset
        if integer_flow:
            flow = np.rint(flow)
        t = np.sort(rng.integers(0, span + 1, size=count))
        ux = rng.integers(0, width, size=count)
        uy = rng.integers(0, height, size=count)
        on_path = rng.random(count) < 0.5
        s = t / span
        x = np.where(on_path, np.rint(ux + s * flow[uy, ux, 0]), rng.integers(0, width, count))
        y = np.where(on_path, np.rint(uy + s * flow[uy, ux, 1]), rng.integers(0, height, count))
        stream = EventStream(
            np.clip(x, 0, width - 1),
            np.clip(y, 0, height - 1),
            t,
            rng.choice([-1, 1], size=count),
            width,
            height,
            0,
            span,
        )
        want = stream.select(oracle(stream, flow, keep_ratio, tolerance))
        got = subsample(stream, flow, keep_ratio, tolerance)
        for field in ("x", "y", "t", "p"):
            assert np.array_equal(getattr(got, field), getattr(want, field))

    @_SUBSAMPLERS
    def test_call_loads_no_scipy(self, subsample, oracle):
        # The seeds near each event come from arithmetic on the seed lattice,
        # so a call in a fresh interpreter leaves scipy unloaded.
        code = f"""
import sys
import numpy as np
from evmeshflow.events import EventStream, {subsample.__name__} as subsample

rng = np.random.default_rng(31)
n = 2000
stream = EventStream(
    rng.integers(0, 32, n), rng.integers(0, 32, n), np.arange(n), np.ones(n),
    32, 32, 0, n - 1,
)
flow = rng.normal(3.0, 2.0, size=(32, 32, 2))
assert 0 < len(subsample(stream, flow, 0.25, tolerance=0.5)) < n
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(events_module.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    @_SUBSAMPLERS
    @pytest.mark.parametrize(
        "case", ["affine-reach", "random-reach", "off-sensor", "on-path-tolerance-0", "chunks"]
    )
    def test_keep_mask_matches_brute_force_at_box_edges(
        self, subsample, oracle, case, monkeypatch
    ):
        # Each case strains one edge of the index box around an event's query
        # point q = e - s * centre with radius r = tolerance + s * reach.
        rng = seeded_rng(53, len(case))
        width, height, span, tolerance = 24, 18, 16, 0.5
        gy, gx = np.mgrid[:height, :width]
        if case == "affine-reach":
            # Flows that vary by 20+ px across the sensor: reach far above the spacing.
            flow = np.stack([0.9 * gx - 0.5 * gy + 3.0, 0.4 * gx + 0.8 * gy - 9.0], -1)
        elif case == "random-reach":
            flow = rng.normal(0.0, 12.0, size=(height, width, 2))
        elif case == "off-sensor":
            # Late queries lie 40 px off the sensor, so their boxes are partly
            # or wholly clipped away.
            flow = rng.normal(0.0, 1.0, size=(height, width, 2)) + (40.0, -35.0)
        elif case == "on-path-tolerance-0":
            # Times are multiples of span / 4 and flows multiples of 4 px, so
            # every path passes exactly through pixels; only those events stay.
            flow = 4.0 * rng.integers(-3, 4, size=(height, width, 2))
            tolerance = 0.0
        else:
            # Budgets of 5 pairs split the call into many chunks, and most
            # events' boxes alone exceed a chunk.
            monkeypatch.setattr(events_module, "_PAIR_BUDGET", 5)
            flow = rng.normal(2.0, 3.0, size=(height, width, 2))
        count = 80
        t = np.sort(rng.integers(0, 5, size=count) * 4)
        ux = rng.integers(0, width, size=count)
        uy = rng.integers(0, height, size=count)
        s = t / span
        on_path = rng.random(count) < 0.6
        x = np.where(on_path, np.rint(ux + s * flow[uy, ux, 0]), rng.integers(0, width, count))
        y = np.where(on_path, np.rint(uy + s * flow[uy, ux, 1]), rng.integers(0, height, count))
        stream = EventStream(
            np.clip(x, 0, width - 1), np.clip(y, 0, height - 1), t,
            rng.choice([-1, 1], size=count), width, height, 0, span,
        )
        # Spatial seeds a lattice of spacing 3; temporal keeps every stamp.
        keep_ratio = 0.1 if subsample is spatial_guided_subsample else 1.0
        want = oracle(stream, flow, keep_ratio, tolerance)
        assert 0 < want.sum() < count
        got = subsample(stream, flow, keep_ratio, tolerance)
        for field in ("x", "y", "t", "p"):
            assert np.array_equal(getattr(got, field), getattr(stream.select(want), field))

    def test_infinite_tolerance_at_size(self):
        # 256x256 sensor with 65536 seeds for temporal and 20000 events at
        # distinct stamps, flows up to ~100 px: every (event, seed) pair
        # would be 1.3e9 distance tests.
        rng = seeded_rng(41)
        n, size = 20_000, 256
        t = np.sort(rng.integers(0, 10**6, n))
        stream = EventStream(
            rng.integers(0, size, n), rng.integers(0, size, n), t,
            rng.choice([-1, 1], n), size, size, 0, 10**6,
        )
        flow = rng.normal(0.0, 30.0, size=(size, size, 2))
        spatial = spatial_guided_subsample(stream, flow, 0.25, tolerance=np.inf)
        assert len(spatial) == n
        stamps = np.unique(t)
        k = np.arange(len(stamps))
        kept = stamps[np.floor(k * 0.5) > np.floor((k - 1) * 0.5)]
        temporal = temporal_guided_subsample(stream, flow, 0.5, tolerance=np.inf)
        assert np.array_equal(temporal.t, t[np.isin(t, kept)])
